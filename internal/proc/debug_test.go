package proc

import (
	"fmt"
	"testing"

	"tracep/internal/asm"
	"tracep/internal/bench"
)

// dumpState prints the window for debugging deadlocks (kept in tests; not
// part of the public API).
func (p *Processor) dumpState() string {
	s := fmt.Sprintf("cycle=%d head=%d tail=%d free=%d rec={active=%v phase=%d} mispQ=%d fetchQ=%d stopped=%v waitInd=%v expPC=%d\n",
		p.cycle, p.head, p.tail, len(p.free), p.rec.active, p.rec.phase, len(p.mispQueue),
		p.fe.queue.len(), p.fe.stopped, p.fe.waitIndirect, p.fe.expectedPC)
	for id := p.head; id >= 0; id = p.pes[id].next {
		pe := p.pes[id]
		s += fmt.Sprintf("  PE%d logical=%d trace=%v inFlight=%d\n", id, pe.logical, pe.tr.Desc, pe.inFlight)
		for i := range pe.insts {
			st := &pe.insts[i]
			s += fmt.Sprintf("    [%2d] pc=%-3d %-20v status=%d ready=%v,%v final=%v", i, st.cold().pc, st.inst, st.status, st.src[0].ready, st.src[1].ready, st.final())
			if st.isBr() {
				s += fmt.Sprintf(" br(assumed=%v resolved=%v/%v)", st.assumedTaken, st.resolved, st.resolvedTaken)
			}
			for k := 0; k < 2; k++ {
				op := &st.src[k]
				if !op.ready && op.tag != 0 {
					e := p.regs.Get(op.tag)
					s += fmt.Sprintf(" src%d{arch=r%d tag=%d entry=%v}", k, op.arch, op.tag, e)
				}
			}
			s += "\n"
		}
	}
	return s
}

func TestDebugLCG(t *testing.T) {
	prog := lcgProgram(300)
	cfg := testConfig()
	p := New(prog, ModelFGMLBRET, cfg)
	_, err := p.Run(0)
	if err != nil {
		t.Log(p.dumpState())
		t.Fatal(err)
	}
}

func TestDebugCalls(t *testing.T) {
	b := asm.New("calls")
	b.Li(29, 1000)
	b.Addi(1, 0, 0)
	b.Addi(4, 0, 0)
	b.Label("loop")
	b.Call("inc")
	b.Call("inc")
	b.Addi(4, 4, 1)
	b.Slti(5, 4, 20)
	b.Bne(5, 0, "loop")
	b.Halt()
	b.Label("inc").Addi(1, 1, 1).Ret()
	prog := b.MustBuild()
	p := New(prog, ModelMLBRET, testConfig())
	_, err := p.Run(0)
	if err != nil {
		t.Log(p.dumpState())
		t.Fatal(err)
	}
}

func TestDebugLiRET(t *testing.T) {
	bm, err := bench.ByName("li")
	if err != nil {
		t.Fatal(err)
	}
	prog := bm.Build(4000)
	cfg := testConfig()
	p := New(prog, ModelRET, cfg)
	_, err = p.Run(0)
	if err != nil {
		t.Log(p.dumpState())
		t.Fatal(err)
	}
}

func TestDebugGoRET(t *testing.T) {
	bm, err := bench.ByName("go")
	if err != nil {
		t.Fatal(err)
	}
	prog := bm.Build(1000)
	cfg := testConfig()
	p := New(prog, ModelRET, cfg)
	_, err = p.Run(0)
	if err != nil {
		t.Log(p.dumpState())
		t.Fatal(err)
	}
}

func TestDebugCountedLoop(t *testing.T) {
	b := asm.New("loop")
	b.Addi(1, 0, 0).Addi(2, 0, 1).Addi(3, 0, 100)
	b.Label("loop").Add(1, 1, 2).Addi(2, 2, 1).Bge(3, 2, "loop")
	b.Store(1, 0, 500)
	b.Halt()
	prog := b.MustBuild()
	cfg := testConfig()
	cfg.WatchdogCycles = 500
	p := New(prog, ModelBase, cfg)
	_, err := p.Run(0)
	if err != nil {
		t.Log(p.dumpState())
		t.Fatal(err)
	}
}
