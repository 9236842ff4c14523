package core

import (
	"errors"
	"fmt"
	"slices"
	"time"

	"voiceprint/internal/timeseries"
	"voiceprint/internal/vanet"
)

// MonitorState is a deep, self-contained copy of everything a Monitor
// needs to resume detection after a restart: the monitor clock, the
// retained per-identity RSSI series, the K-of-N confirmation history and
// the density estimator's known-Sybil set. It deliberately excludes the
// unchanged-round cache and the reusable scratch buffers — those rebuild
// on the first round without changing any result — and the
// configuration, which the restoring side supplies (state only
// round-trips between identically configured monitors).
//
// All slices are sorted by identity so that two captures of the same
// monitor are byte-identical when serialized: the WAL layer depends on
// this for its crash-determinism tests.
type MonitorState struct {
	Now        time.Duration
	Evicted    uint64
	Identities []IdentityState
	Confirm    []ConfirmState
	KnownSybil []vanet.NodeID
}

// IdentityState is one tracked identity's retained series, plus — on
// fusion-enabled monitors — its retained claimed-position samples.
type IdentityState struct {
	ID      vanet.NodeID
	LastObs time.Duration
	Samples []timeseries.Sample
	// Claims holds the identity's claimed-position evidence in reception
	// order; empty on plain monitors and for identities whose beacons
	// carried no position.
	Claims []ClaimSample
}

// ConfirmState is one identity's K-of-N flag history, oldest first.
type ConfirmState struct {
	ID    vanet.NodeID
	Flags []bool
}

// State captures the monitor's durable state. The copy is deep: the
// returned value shares no memory with the monitor and stays valid while
// the monitor keeps ingesting.
func (m *Monitor) State() *MonitorState {
	m.mu.Lock()
	defer m.mu.Unlock()
	st := &MonitorState{Now: m.now, Evicted: m.evicted}

	ids := make([]vanet.NodeID, 0, len(m.series))
	for id := range m.series {
		ids = append(ids, id)
	}
	slices.Sort(ids)
	st.Identities = make([]IdentityState, 0, len(ids))
	for _, id := range ids {
		s := m.series[id]
		ident := IdentityState{
			ID:      id,
			LastObs: m.lastObs[id],
			Samples: make([]timeseries.Sample, s.Len()),
		}
		for i := range ident.Samples {
			ident.Samples[i] = s.At(i)
		}
		if cs := m.claims[id]; len(cs) > 0 {
			ident.Claims = slices.Clone(cs)
		}
		st.Identities = append(st.Identities, ident)
	}

	cids := make([]vanet.NodeID, 0, len(m.confirmer.history))
	for id := range m.confirmer.history {
		cids = append(cids, id)
	}
	slices.Sort(cids)
	st.Confirm = make([]ConfirmState, 0, len(cids))
	for _, id := range cids {
		st.Confirm = append(st.Confirm, ConfirmState{
			ID:    id,
			Flags: slices.Clone(m.confirmer.history[id]),
		})
	}

	for id := range m.estimator.knownSybil {
		st.KnownSybil = append(st.KnownSybil, id)
	}
	slices.Sort(st.KnownSybil)
	return st
}

// RestoreState loads a previously captured state into a freshly built
// monitor. The monitor must not have ingested anything yet — restore is
// a boot-time operation, not a merge — and the state must have been
// captured by a monitor with the same configuration. Sample and flag
// contents are validated (finite RSSI, monotone timestamps) because the
// state typically crossed a disk boundary.
func (m *Monitor) RestoreState(st *MonitorState) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	if len(m.series) != 0 || len(m.confirmer.history) != 0 || m.now != 0 || m.evicted != 0 {
		return errors.New("core: RestoreState on a monitor that already has state")
	}
	for _, ident := range st.Identities {
		if _, dup := m.series[ident.ID]; dup {
			return fmt.Errorf("core: restore: duplicate identity %d", ident.ID)
		}
		n := len(ident.Samples)
		if n < 64 {
			n = 64
		}
		s := timeseries.New(n)
		for _, smp := range ident.Samples {
			if err := s.AppendChecked(smp.T, smp.RSSI); err != nil {
				return fmt.Errorf("core: restore identity %d: %w", ident.ID, err)
			}
		}
		m.series[ident.ID] = s
		m.lastObs[ident.ID] = ident.LastObs
		if len(ident.Claims) > 0 && m.claims != nil {
			prev := time.Duration(-1 << 62)
			for _, c := range ident.Claims {
				if !finiteClaim(c) {
					return fmt.Errorf("core: restore identity %d: %w", ident.ID, ErrNonFinitePosition)
				}
				if c.T < prev {
					return fmt.Errorf("core: restore identity %d: claim time went backwards", ident.ID)
				}
				prev = c.T
			}
			m.claims[ident.ID] = slices.Clone(ident.Claims)
		}
	}
	for _, c := range st.Confirm {
		if _, dup := m.confirmer.history[c.ID]; dup {
			return fmt.Errorf("core: restore: duplicate confirm history for %d", c.ID)
		}
		flags := slices.Clone(c.Flags)
		// A capture from a wider-window configuration still restores: only
		// the newest window-many rounds can influence future verdicts.
		if len(flags) > m.confirmer.window {
			flags = flags[len(flags)-m.confirmer.window:]
		}
		m.confirmer.history[c.ID] = flags
	}
	for _, id := range st.KnownSybil {
		m.estimator.knownSybil[id] = true
	}
	m.now = st.Now
	m.evicted = st.Evicted
	m.version++
	return nil
}
