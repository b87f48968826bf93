package oram

import (
	"fmt"

	"doram/internal/oram/backend"
)

// Mechanism and ErrIntegrity live in the backend subpackage (the
// encryptors raise them).

// ErrSecurityAlarm is raised when an integrity failure survives the
// bounded re-read retries: the fault is not a transient glitch but
// persistent tampering, and the client refuses to continue (the paper's
// abort-on-tamper response, escalated only after recovery was attempted).
type ErrSecurityAlarm struct {
	Node      backend.NodeID
	Mechanism backend.Mechanism
	// Attempts is the total number of verification attempts made,
	// including the original read.
	Attempts int
}

func (e ErrSecurityAlarm) Error() string {
	return fmt.Sprintf("oram: security alarm: persistent %s integrity failure at node %d after %d attempts",
		e.Mechanism, e.Node, e.Attempts)
}

// RecoveryConfig tunes the client's response to integrity failures and
// stash pressure.
type RecoveryConfig struct {
	// MaxRetries bounds the re-reads attempted after a verification
	// failure before escalating to ErrSecurityAlarm. 0 disables recovery:
	// the first failure surfaces directly (the pre-recovery behaviour).
	MaxRetries int
	// RetryCostCycles is the simulated cost of re-reading one bucket
	// (serial-link round trip plus the DRAM burst for Z blocks); it
	// accumulates into RecoveryStats.RecoveryCycles so chaos campaigns
	// report their timing overhead.
	RetryCostCycles uint64
}

// DefaultRecoveryConfig returns the default recovery posture: up to 3
// re-reads, each charged 160 CPU cycles (a 66-cycle link round trip plus
// four 64 B bursts on a sub-channel, rounded to the paper's clock).
func DefaultRecoveryConfig() RecoveryConfig {
	return RecoveryConfig{MaxRetries: 3, RetryCostCycles: 160}
}

// RecoveryStats counts the client's fault-recovery activity.
type RecoveryStats struct {
	// Retries counts single-bucket re-reads after a MAC failure.
	Retries uint64
	// PathRetries counts whole-path re-fetches after a Merkle failure.
	PathRetries uint64
	// Alarms counts escalations to ErrSecurityAlarm.
	Alarms uint64
	// PressureEvictions counts dummy accesses issued to relieve stash
	// pressure before it could become ErrStashOverflow.
	PressureEvictions uint64
	// RecoveryCycles is the simulated cycle cost of all integrity
	// retries.
	RecoveryCycles uint64
}
