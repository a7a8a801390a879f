package cluster

import (
	"errors"
	"fmt"
	"time"

	"minraid/internal/core"
)

// RecoverWithRetry recovers a site, retrying when the donor handshake is
// lost in transit (the recovery multicast and its replies travel
// site-to-site links, which may be chaotic). Returns the number of
// blocked attempts retried.
func (c *Manager) RecoverWithRetry(id core.SiteID, ackTimeout time.Duration) (int, error) {
	_, err := c.Recover(id)
	return c.RetryBlockedRecovery(id, err, ackTimeout)
}

// RetryBlockedRecovery repeats the recovery order for id, half an ack
// timeout apart, while err (the previous attempt's outcome) reports it
// blocked, up to eight attempts in all. A deployment that restarts the
// site itself first (re-exec with WAL replay) makes that the first
// attempt and hands its error here. Returns the number of retries and
// the last attempt's error.
func (c *Manager) RetryBlockedRecovery(id core.SiteID, err error, ackTimeout time.Duration) (int, error) {
	retries := 0
	for ; retries < 7 && errors.Is(err, ErrRecoveryBlocked); retries++ {
		time.Sleep(ackTimeout / 2)
		_, err = c.Recover(id)
	}
	return retries, err
}

// RepairFalseSuspicions probes every truly-up site's session vector and,
// while some truly-up site is marked failed by another truly-up site,
// completes the declared failure (Fail) and heals it (Recover): the type-1
// recovery announcement re-introduces the suspect to everyone, and demand
// copiers refresh whatever it missed or wrote solo. Divergence the suspect
// accumulated is fail-locked on both sides throughout, so the audit
// invariant holds across the repair. trueUp is the caller's ground truth
// of which sites have not been ordered to fail; the managing site always
// has it, since its orders are the only source of real failures.
func (c *Manager) RepairFalseSuspicions(trueUp []bool, ackTimeout time.Duration) (int, error) {
	return c.RepairFalseSuspicionsWhere(trueUp, nil, ackTimeout)
}

// RepairFalseSuspicionsWhere is RepairFalseSuspicions restricted to the
// (observer, suspect) pairs eligible accepts (nil accepts every pair). A
// partition-aware soak excludes pairs touched by the active network
// episode: their suspicion is legitimate evidence of the cut, not a false
// positive, and resolving it must wait for heal-time reconciliation.
func (c *Manager) RepairFalseSuspicionsWhere(trueUp []bool, eligible func(observer, suspect core.SiteID) bool, ackTimeout time.Duration) (int, error) {
	repairs := 0
	maxRounds := 2 * len(trueUp)
	for round := 0; round < maxRounds; round++ {
		suspect := core.SiteID(0)
		found := false
	probe:
		for a, aUp := range trueUp {
			if !aUp {
				continue
			}
			st, err := c.Status(core.SiteID(a), false)
			if err != nil {
				return repairs, err
			}
			for b, rec := range st.Vector {
				if b != a && trueUp[b] && rec.Status != core.StatusUp {
					if eligible != nil && !eligible(core.SiteID(a), core.SiteID(b)) {
						continue
					}
					suspect = core.SiteID(b)
					found = true
					break probe
				}
			}
		}
		if !found {
			return repairs, nil
		}
		if err := c.Fail(suspect); err != nil {
			return repairs, err
		}
		if _, err := c.RecoverWithRetry(suspect, ackTimeout); err != nil {
			return repairs, err
		}
		repairs++
	}
	return repairs, fmt.Errorf("cluster: false-suspicion repair did not converge after %d rounds", maxRounds)
}
