package tracefile

import (
	"context"
	"fmt"
	"io"

	"tracep/internal/emu"
	"tracep/internal/isa"
)

// Capture emulates prog from its entry to the architectural halt, hashing
// every committed record into the path digest, then writes the recording
// (program, record count, digest) to w and returns the record count.
// maxInsts bounds runaway programs (0 means unbounded); the bound is never
// above maxRecords, whatever maxInsts says, so Load accepts every file
// Capture writes. Reaching it before the halt is an error. Cancellation is
// checked every few tens of thousands of instructions.
func Capture(ctx context.Context, w io.Writer, prog *isa.Program, meta Meta, maxInsts uint64) (uint64, error) {
	buf, err := encodeHeader(prog, meta)
	if err != nil {
		return 0, err
	}
	if maxInsts == 0 || maxInsts > maxRecords {
		maxInsts = maxRecords
	}
	e := emu.New(prog)
	var rec emu.Record
	digest := fnvOffset64
	for !e.Halted {
		if e.Count >= maxInsts {
			return e.Count, fmt.Errorf("tracefile: capture of %q hit the %d-instruction bound before halting", prog.Name, maxInsts)
		}
		if e.Count&0xffff == 0 {
			if err := ctx.Err(); err != nil {
				return e.Count, err
			}
		}
		e.Step(&rec)
		digest.add(&rec)
	}
	if _, err := w.Write(appendPath(buf, e.Count, digest)); err != nil {
		return e.Count, err
	}
	return e.Count, nil
}
