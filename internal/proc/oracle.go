package proc

import "fmt"

// verifyRetired checks one retired instruction against the architectural
// oracle, the in-process emulator.
//
//tracep:noalloc
func (p *Processor) verifyRetired(st *instState) error {
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
	if st.isStore() {
		if st.lastAddr != rec.Addr || st.cold().lastStoreVal != rec.StoreVal {
			//tracep:allow verification mismatch is terminal: the run aborts
			return fmt.Errorf("pc %d: retired store [%d]=%d, oracle [%d]=%d",
				st.cold().pc, st.lastAddr, st.cold().lastStoreVal, rec.Addr, rec.StoreVal)
		}
	}
	if st.isLoad() && st.lastAddr != rec.Addr {
		//tracep:allow verification mismatch is terminal: the run aborts
		return fmt.Errorf("pc %d: retired load addr %d, oracle %d", st.cold().pc, st.lastAddr, rec.Addr)
	}
	if rec.Inst.IsCondBranch() {
		p.oracleCondBrs++
	}
	if st.isBr() && st.resolvedTaken != rec.Taken {
		//tracep:allow verification mismatch is terminal: the run aborts
		return fmt.Errorf("pc %d: retired branch taken=%v, oracle %v", st.cold().pc, st.resolvedTaken, rec.Taken)
	}
	if st.isIndirect() && st.cold().actualTarget != rec.NextPC {
		//tracep:allow verification mismatch is terminal: the run aborts
		return fmt.Errorf("pc %d: retired indirect target %d, oracle %d", st.cold().pc, st.cold().actualTarget, rec.NextPC)
	}
	return nil
}
