package proc

import (
	"errors"
	"fmt"

	"tracep/internal/arb"
	"tracep/internal/trace"
)

// ErrInvalidConfig is the sentinel all configuration validation errors wrap;
// callers test with errors.Is(err, ErrInvalidConfig).
var ErrInvalidConfig = errors.New("invalid processor configuration")

// ConfigError reports one invalid Config field. It wraps ErrInvalidConfig.
type ConfigError struct {
	Field  string
	Value  any
	Reason string
}

func (e *ConfigError) Error() string {
	return fmt.Sprintf("config: %s = %v: %s", e.Field, e.Value, e.Reason)
}

// Unwrap makes errors.Is(err, ErrInvalidConfig) hold for every ConfigError.
func (e *ConfigError) Unwrap() error { return ErrInvalidConfig }

func powerOfTwo(n int) bool { return n > 0 && n&(n-1) == 0 }

// Validate checks every Config field and returns nil or an error joining one
// ConfigError per violation. The simulator front door (package tracep)
// validates before constructing a Processor so misconfiguration surfaces as
// a typed error instead of a panic or a silently substituted default deep in
// an internal package.
func (c *Config) Validate() error {
	var errs []error
	bad := func(field string, value any, reason string) {
		errs = append(errs, &ConfigError{Field: field, Value: value, Reason: reason})
	}

	if c.NumPEs < 1 || c.NumPEs > arb.MaxPEs {
		bad("NumPEs", c.NumPEs, fmt.Sprintf("must be in [1, %d]", arb.MaxPEs))
	}
	if c.PEIssueWidth < 1 {
		bad("PEIssueWidth", c.PEIssueWidth, "need at least 1-way issue")
	}
	if c.MaxTraceLen < 1 || c.MaxTraceLen > trace.MaxLen {
		bad("MaxTraceLen", c.MaxTraceLen, fmt.Sprintf("must be in [1, %d]", trace.MaxLen))
	}
	if c.GlobalBuses < 1 {
		bad("GlobalBuses", c.GlobalBuses, "need at least one global result bus")
	}
	if c.MaxBusPerPE < 1 || (c.GlobalBuses >= 1 && c.MaxBusPerPE > c.GlobalBuses) {
		bad("MaxBusPerPE", c.MaxBusPerPE, fmt.Sprintf("must be in [1, GlobalBuses=%d]", c.GlobalBuses))
	}
	if c.CacheBuses < 1 {
		bad("CacheBuses", c.CacheBuses, "need at least one cache bus")
	}
	if c.MaxCachePerPE < 1 || (c.CacheBuses >= 1 && c.MaxCachePerPE > c.CacheBuses) {
		bad("MaxCachePerPE", c.MaxCachePerPE, fmt.Sprintf("must be in [1, CacheBuses=%d]", c.CacheBuses))
	}
	if c.BusLatency < 0 {
		bad("BusLatency", c.BusLatency, "cannot be negative")
	}
	if c.WatchdogCycles < 0 {
		bad("WatchdogCycles", c.WatchdogCycles, "cannot be negative (0 disables the watchdog)")
	}

	if !powerOfTwo(c.BPred.Entries) {
		bad("BPred.Entries", c.BPred.Entries, "must be a power of two")
	}
	if c.BPred.RASDepth < 0 {
		bad("BPred.RASDepth", c.BPred.RASDepth, "cannot be negative")
	}
	if !powerOfTwo(c.TPred.PathEntries) {
		bad("TPred.PathEntries", c.TPred.PathEntries, "must be a power of two")
	}
	if !powerOfTwo(c.TPred.SimpleEntries) {
		bad("TPred.SimpleEntries", c.TPred.SimpleEntries, "must be a power of two")
	}
	if c.TPred.HistLen < 1 {
		bad("TPred.HistLen", c.TPred.HistLen, "path history needs at least one trace")
	}

	if c.TCache.Sets < 1 || !powerOfTwo(c.TCache.Sets) {
		bad("TCache.Sets", c.TCache.Sets, "must be a positive power of two")
	}
	if c.TCache.Assoc < 1 {
		bad("TCache.Assoc", c.TCache.Assoc, "must be at least direct-mapped")
	}
	if c.ICache.SizeInsts < 1 || c.ICache.Assoc < 1 || c.ICache.LineInsts < 1 {
		bad("ICache", fmt.Sprintf("%+v", c.ICache), "size, associativity and line size must be positive")
	} else if !powerOfTwo(c.ICache.SizeInsts / c.ICache.LineInsts / c.ICache.Assoc) {
		bad("ICache", fmt.Sprintf("%+v", c.ICache), "size/line/assoc must derive a power-of-two set count")
	}
	if c.DCache.SizeWords < 1 || c.DCache.Assoc < 1 || c.DCache.LineWords < 1 {
		bad("DCache", fmt.Sprintf("%+v", c.DCache), "size, associativity and line size must be positive")
	} else if !powerOfTwo(c.DCache.SizeWords / c.DCache.LineWords / c.DCache.Assoc) {
		bad("DCache", fmt.Sprintf("%+v", c.DCache), "size/line/assoc must derive a power-of-two set count")
	}
	if c.BIT.Entries < 1 || c.BIT.Assoc < 1 {
		bad("BIT", fmt.Sprintf("%+v", c.BIT), "entries and associativity must be positive")
	}

	return errors.Join(errs...)
}
