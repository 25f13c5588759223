package core

import (
	"time"

	"repro/internal/msg"
)

// waitClaim is the blocking single claim without its copy-out: the
// take-claim tests inspect the claim, act on the circuit, and only then
// end it with copyOut.
func (f *Facility) waitClaim(pid int, id ID, deadline *time.Time, take bool) (claim, error) {
	var one [1]*msg.Message
	c, _, err := f.claimWait(pid, id, one[:], take, true, deadline)
	return c, err
}
