package trace_test

import (
	"context"
	"fmt"
	"log"

	"tracep"
	"tracep/internal/asm"
	"tracep/internal/core"
	"tracep/internal/trace"
)

// The paper's Figure 7 (§3.1) is a nested forward-branching region of
// eight basic blocks A(1) B(5) C(3) D(2) E(3) F(1) G(5) H(6), headed by the
// branch in A. The FGCI-algorithm finds the region and its re-convergent
// point in one pass over the code. FGCI trace selection then pads every
// path through the region to the same end: at maximum trace length 16 the
// four outcome combinations give traces of lengths 16, 15, 11 and 15 that
// all stop at the last instruction of H. A misprediction of any branch in
// the region swaps one trace for another without moving the traces after
// it.
func Example_figure7() {
	b := asm.New("figure7")
	b.Label("A").Bne(1, 0, "E")
	b.Addi(2, 2, 1).Addi(2, 2, 1).Addi(2, 2, 1).Addi(2, 2, 1)
	b.Bne(3, 0, "D")
	b.Addi(4, 4, 1).Addi(4, 4, 1)
	b.Jump("F")
	b.Label("D").Addi(5, 5, 1)
	b.Jump("F")
	b.Label("E").Addi(6, 6, 1).Addi(6, 6, 1)
	b.Bne(7, 0, "G")
	b.Label("F").Jump("H")
	b.Label("G").Addi(8, 8, 1).Addi(8, 8, 1).Addi(8, 8, 1).Addi(8, 8, 1).Addi(8, 8, 1)
	b.Label("H").Addi(9, 9, 1).Addi(9, 9, 1).Addi(9, 9, 1).Addi(9, 9, 1).Addi(9, 9, 1).Addi(9, 9, 1)
	b.Halt()
	prog, err := b.Build()
	if err != nil {
		log.Fatal(err)
	}

	fmt.Println("FGCI-algorithm, one region per forward conditional branch:")
	for pc := uint32(0); int(pc) < prog.Len(); pc++ {
		if !prog.Ref(pc).IsForwardBranch(pc) {
			continue
		}
		reg := core.AnalyzeRegion(prog, pc, core.DefaultAnalyzeConfig())
		fmt.Printf("  branch @%d: found=%v dynamic size=%d reconv pc=%d static size=%d cond branches=%d scan cycles=%d\n",
			pc, reg.Found, reg.Size, reg.ReconvPC, reg.StaticSize, reg.NumCondBr, reg.Scanned)
	}

	bit := core.NewBIT(prog, core.BITConfig{
		Entries: 8192, Assoc: 4,
		Analyze: core.AnalyzeConfig{MaxSize: 16, MaxEdges: 8, MaxScan: 512},
	})
	ctor := &trace.Constructor{Prog: prog, Sel: trace.SelConfig{MaxLen: 16, FG: true}, BIT: bit}
	fmt.Println("FGCI trace selection, maximum trace length 16:")
	for _, path := range []struct {
		blocks   string
		outcomes []bool
	}{
		{"{A,B,C,F,H}", []bool{false, false}},
		{"{A,B,D,F,H}", []bool{false, true}},
		{"{A,E,F,H}", []bool{true, false}},
		{"{A,E,G,H}", []bool{true, true}},
	} {
		tr, _ := ctor.Build(0, path.outcomes)
		fmt.Printf("  %-11s length %d, ends at pc %d, next pc %d\n",
			path.blocks, tr.Len(), tr.PCs[tr.Len()-1], tr.NextPC)
	}

	// The simulator runs the figure's program under FG with the oracle on.
	res, err := tracep.New(prog, tracep.WithModel(tracep.ModelFG)).Run(context.Background())
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("FG retired %d instructions in %d cycles, oracle-verified\n",
		res.Stats.RetiredInsts, res.Stats.Cycles)
	// Output:
	// FGCI-algorithm, one region per forward conditional branch:
	//   branch @0: found=true dynamic size=10 reconv pc=20 static size=20 cond branches=3 scan cycles=20
	//   branch @5: found=true dynamic size=4 reconv pc=14 static size=9 cond branches=1 scan cycles=9
	//   branch @13: found=true dynamic size=6 reconv pc=20 static size=7 cond branches=1 scan cycles=7
	// FGCI trace selection, maximum trace length 16:
	//   {A,B,C,F,H} length 16, ends at pc 25, next pc 26
	//   {A,B,D,F,H} length 15, ends at pc 25, next pc 26
	//   {A,E,F,H}   length 11, ends at pc 25, next pc 26
	//   {A,E,G,H}   length 15, ends at pc 25, next pc 26
	// FG retired 17 instructions in 61 cycles, oracle-verified
}
