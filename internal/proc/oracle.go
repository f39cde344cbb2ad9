package proc

import (
	"errors"
	"fmt"
	"io"

	"tracep/internal/emu"
)

// CommitSource supplies the committed-path record stream a processor
// verifies retirement against, in place of the in-process emulator: a
// recorded-trace reader (internal/tracefile.Reader) is one. Next returns
// successive committed records and io.EOF past the end of the recording.
//
// A recorded stream carries control flow and memory addresses but not
// register values, so verification against it checks the subset the format
// preserves (see verifyRecorded); the full-value oracle remains the
// default for in-process programs.
type CommitSource interface {
	// Next returns the next committed record. Implementations are part of
	// the retire loop and must uphold the zero-allocation discipline.
	//
	//tracep:noalloc
	Next() (emu.Record, error)
}

// SetCommitSource replaces the in-process architectural oracle with src for
// the rest of the run. Call it before Run, after construction (and after
// snapshot restore — the caller is responsible for advancing src past any
// warmed-up prefix, e.g. tracefile.Reader.Skip(Stats.WarmupInsts)). It has
// effect only under Config.Verify; with verification off the source is
// never consulted.
func (p *Processor) SetCommitSource(src CommitSource) {
	p.commits = src
	p.oracle = nil
}

// verifyRetired checks one retired instruction against the architectural
// oracle — the in-process emulator when available, otherwise the installed
// commit source.
//
//tracep:noalloc
func (p *Processor) verifyRetired(st *instState) error {
	if p.commits != nil {
		return p.verifyRecorded(st)
	}
	rec := &p.oracleRec
	p.oracle.Step(rec)
	if rec.PC != st.cold().pc {
		//tracep:allow verification mismatch is terminal: the run aborts
		return fmt.Errorf("oracle divergence at cycle %d: retired pc %d, oracle pc %d",
			p.cycle, st.cold().pc, rec.PC)
	}
	if rec.HasDest {
		if st.destArch != rec.Dest {
			//tracep:allow verification mismatch is terminal: the run aborts
			return fmt.Errorf("pc %d: retired dest r%d, oracle r%d", st.cold().pc, st.destArch, rec.Dest)
		}
		if st.localVal != rec.Value {
			//tracep:allow verification mismatch is terminal: the run aborts
			return fmt.Errorf("pc %d (%v): retired value %d, oracle %d",
				st.cold().pc, st.inst, st.localVal, rec.Value)
		}
	}
	if st.isStore {
		if st.lastAddr != rec.Addr || st.cold().lastStoreVal != rec.StoreVal {
			//tracep:allow verification mismatch is terminal: the run aborts
			return fmt.Errorf("pc %d: retired store [%d]=%d, oracle [%d]=%d",
				st.cold().pc, st.lastAddr, st.cold().lastStoreVal, rec.Addr, rec.StoreVal)
		}
	}
	if st.isLoad && st.lastAddr != rec.Addr {
		//tracep:allow verification mismatch is terminal: the run aborts
		return fmt.Errorf("pc %d: retired load addr %d, oracle %d", st.cold().pc, st.lastAddr, rec.Addr)
	}
	if st.isBr && st.resolvedTaken != rec.Taken {
		//tracep:allow verification mismatch is terminal: the run aborts
		return fmt.Errorf("pc %d: retired branch taken=%v, oracle %v", st.cold().pc, st.resolvedTaken, rec.Taken)
	}
	if st.isIndirect && st.cold().actualTarget != rec.NextPC {
		//tracep:allow verification mismatch is terminal: the run aborts
		return fmt.Errorf("pc %d: retired indirect target %d, oracle %d", st.cold().pc, st.cold().actualTarget, rec.NextPC)
	}
	return nil
}

// verifyRecorded checks one retired instruction against the next record of
// the commit source: program counter, branch direction, memory address and
// indirect target — everything the trace format records. Register and
// store values are not in the recording, so they go unchecked here; the
// full ci-baseline byte-identity gate covers them indirectly (a value bug
// would diverge control flow or addresses within a few records).
//
//tracep:noalloc
func (p *Processor) verifyRecorded(st *instState) error {
	rec, err := p.commits.Next()
	if err != nil {
		//tracep:allow alloc-free sentinel comparison on the end-of-trace path
		if errors.Is(err, io.EOF) {
			//tracep:allow verification mismatch is terminal: the run aborts
			return fmt.Errorf("recorded trace ended at cycle %d but pc %d retired beyond it", p.cycle, st.cold().pc)
		}
		//tracep:allow verification mismatch is terminal: the run aborts
		return fmt.Errorf("reading recorded trace at cycle %d: %w", p.cycle, err)
	}
	if rec.PC != st.cold().pc {
		//tracep:allow verification mismatch is terminal: the run aborts
		return fmt.Errorf("recorded-trace divergence at cycle %d: retired pc %d, trace pc %d",
			p.cycle, st.cold().pc, rec.PC)
	}
	if (st.isLoad || st.isStore) && st.lastAddr != rec.Addr {
		//tracep:allow verification mismatch is terminal: the run aborts
		return fmt.Errorf("pc %d: retired %v addr %d, trace %d", st.cold().pc, st.inst.Op, st.lastAddr, rec.Addr)
	}
	if st.isBr && st.resolvedTaken != rec.Taken {
		//tracep:allow verification mismatch is terminal: the run aborts
		return fmt.Errorf("pc %d: retired branch taken=%v, trace %v", st.cold().pc, st.resolvedTaken, rec.Taken)
	}
	if st.isIndirect && st.cold().actualTarget != rec.NextPC {
		//tracep:allow verification mismatch is terminal: the run aborts
		return fmt.Errorf("pc %d: retired indirect target %d, trace %d", st.cold().pc, st.cold().actualTarget, rec.NextPC)
	}
	return nil
}
