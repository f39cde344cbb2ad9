// Command fgcidump runs the FGCI-algorithm over every forward conditional
// branch of a suite benchmark and prints the detected regions — the static
// analysis behind Table 5's branch classification and the BIT's contents.
//
// Usage:
//
//	fgcidump -bench compress
//	fgcidump -bench jpeg -maxlen 16
//	fgcidump -bench all
package main

import (
	"flag"
	"fmt"
	"os"

	"tracep"
	"tracep/internal/core"
)

func main() {
	benchName := flag.String("bench", "compress", "benchmark name or 'all'")
	maxLen := flag.Int("maxlen", 32, "maximum trace length (embeddability bound)")
	flag.Parse()

	var benches []tracep.Benchmark
	if *benchName == "all" {
		benches = tracep.Benchmarks()
	} else {
		bm, err := tracep.BenchmarkByName(*benchName)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		benches = []tracep.Benchmark{bm}
	}
	for i, bm := range benches {
		if i > 0 {
			fmt.Println()
		}
		dump(bm, *maxLen)
	}
}

func dump(bm tracep.Benchmark, maxLen int) {
	prog := bm.Build(1)

	fmt.Printf("FGCI region analysis for %q (%d static instructions, max trace length %d)\n\n",
		bm.Name, prog.Len(), maxLen)
	fmt.Printf("%-6s %-28s %-6s %-9s %-8s %-8s %-7s %s\n",
		"pc", "instruction", "found", "dyn size", "reconv", "static", "#cond", "class")

	var total, embeddable, big int
	for pc := uint32(0); int(pc) < prog.Len(); pc++ {
		in := prog.Ref(pc)
		if !in.IsCondBranch() {
			continue
		}
		total++
		kind, reg := core.ClassifyBranch(prog, pc, maxLen)
		var class string
		switch kind {
		case core.ClassBackward:
			fmt.Printf("%-6d %-28s %-6s %-9s %-8s %-8s %-7s backward\n",
				pc, in.String(), "-", "-", "-", "-", "-")
			continue
		case core.ClassFGCISmall:
			class = fmt.Sprintf("FGCI (<=%d)", maxLen)
			embeddable++
		case core.ClassFGCIBig:
			class = fmt.Sprintf("FGCI (>%d)", maxLen)
			big++
		default:
			class = "other forward"
		}
		if reg.Found {
			fmt.Printf("%-6d %-28s %-6v %-9d %-8d %-8d %-7d %s\n",
				pc, in.String(), reg.Found, reg.Size, reg.ReconvPC, reg.StaticSize, reg.NumCondBr, class)
		} else {
			fmt.Printf("%-6d %-28s %-6v %-9s %-8s %-8s %-7s %s\n",
				pc, in.String(), reg.Found, "-", "-", "-", "-", class)
		}
	}
	fmt.Printf("\n%d conditional branches: %d embeddable, %d oversized regions, %d other\n",
		total, embeddable, big, total-embeddable-big)
}
