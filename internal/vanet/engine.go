package vanet

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"time"

	"voiceprint/internal/channel"
	"voiceprint/internal/gps"
	"voiceprint/internal/mobility"
	"voiceprint/internal/radio"
)

// Config parameterizes an Engine run.
type Config struct {
	// Channel is the MAC/reception model; zero value means
	// channel.DefaultParams().
	Channel channel.Params
	// Radio is the (possibly time-varying) path-loss process. Required.
	Radio radio.Channel
	// Step is the beacon interval; zero means 100 ms (10 Hz per
	// Assumption 2).
	Step time.Duration
	// Observers lists the node indices that record reception logs. Empty
	// means every non-malicious node records. Recording only a sample of
	// receivers is the memory/time substitution documented in DESIGN.md;
	// detection metrics average over observers either way.
	Observers []int
	// Seed seeds the engine's private RNG.
	Seed int64
	// ShadowCorrDistanceM is the decorrelation distance of the per-link
	// shadowing process (Gauss-Markov over distance moved): large-scale
	// fading changes as the *geometry* changes, not with time — stationary
	// vehicles keep a frozen shadowing value, which is what produces the
	// paper's red-light false positive (Section VI-B). Crucially for
	// Observation 3, all identities broadcast by one physical radio share
	// the same link and therefore the same shadowing trace.
	// Zero means 20 m.
	ShadowCorrDistanceM float64
	// NoiseDB is the per-beacon i.i.d. measurement noise (receiver chain
	// quantization, fast fading residue). Zero means 0.5 dB; negative
	// disables.
	NoiseDB float64
	// GPS, when non-nil, routes every node's claimed position through a
	// per-receiver GPS error process (Table II hardware); nil means
	// perfect self-localization. Position-verification baselines are the
	// consumers: Sybil claimed offsets below the GPS error floor are
	// undetectable by construction.
	GPS *gps.Params
}

// Engine steps a set of nodes through time and produces reception logs.
type Engine struct {
	cfg       Config
	nodes     []*Node
	observers []int
	rng       *rand.Rand
	logs      map[int]*ReceptionLog
	now       time.Duration

	// shadows holds the per-(transmitter, observer) correlated shadowing
	// state as a standard-normal AR(1)-over-distance process; the sigma at
	// the current distance scales it at sample time.
	shadows map[linkKey]*shadowState
	// prevPositions hold last step's node positions for displacement.
	prevPositions []mobility.Position
	// receivers hold per-node GPS error processes when Config.GPS is set.
	receivers []*gps.Receiver
}

type linkKey struct {
	tx, rx int
}

type shadowState struct {
	z    float64
	live bool
}

// NewEngine validates the configuration and nodes and builds an engine.
func NewEngine(cfg Config, nodes []*Node) (*Engine, error) {
	if cfg.Radio == nil {
		return nil, errors.New("vanet: config needs a radio channel")
	}
	if cfg.Step == 0 {
		cfg.Step = 100 * time.Millisecond
	}
	if cfg.Step < 0 {
		return nil, errors.New("vanet: step must be positive")
	}
	if cfg.Channel == (channel.Params{}) {
		cfg.Channel = channel.DefaultParams()
	}
	if err := cfg.Channel.Validate(); err != nil {
		return nil, err
	}
	if len(nodes) < 2 {
		return nil, errors.New("vanet: need at least two nodes")
	}
	// An identity ID may appear on several radios only if the copies'
	// active windows are pairwise disjoint: that is the colluding-fleet
	// handoff (one fabricated identity walking between physical
	// transmitters), and two radios broadcasting one identity at the same
	// instant is a configuration bug, not an attack the medium supports.
	seen := make(map[NodeID][]Identity)
	for i, n := range nodes {
		if err := n.Validate(); err != nil {
			return nil, fmt.Errorf("node %d: %w", i, err)
		}
		for _, id := range n.Identities {
			for _, prev := range seen[id.ID] {
				if id.overlaps(prev) {
					return nil, fmt.Errorf("vanet: duplicate identity %d with overlapping active windows", id.ID)
				}
			}
			seen[id.ID] = append(seen[id.ID], id)
		}
	}
	observers := cfg.Observers
	if len(observers) == 0 {
		for i, n := range nodes {
			if !n.Malicious {
				observers = append(observers, i)
			}
		}
	} else {
		for _, idx := range observers {
			if idx < 0 || idx >= len(nodes) {
				return nil, fmt.Errorf("vanet: observer index %d out of range", idx)
			}
		}
	}
	if cfg.ShadowCorrDistanceM == 0 {
		cfg.ShadowCorrDistanceM = 20
	}
	if cfg.ShadowCorrDistanceM < 0 {
		return nil, errors.New("vanet: shadow correlation distance must be positive")
	}
	if cfg.NoiseDB == 0 {
		cfg.NoiseDB = 0.5
	}
	if cfg.NoiseDB < 0 {
		cfg.NoiseDB = 0
	}
	e := &Engine{
		cfg:       cfg,
		nodes:     nodes,
		observers: observers,
		rng:       rand.New(rand.NewSource(cfg.Seed)),
		logs:      make(map[int]*ReceptionLog, len(observers)),
		shadows:   make(map[linkKey]*shadowState),
	}
	for _, idx := range observers {
		e.logs[idx] = &ReceptionLog{
			Receiver:    nodes[idx].OwnID(),
			PerIdentity: make(map[NodeID]*IdentityLog),
		}
	}
	if cfg.GPS != nil {
		e.receivers = make([]*gps.Receiver, len(nodes))
		for i := range nodes {
			r, err := gps.NewReceiver(*cfg.GPS, cfg.Seed+int64(1000+i))
			if err != nil {
				return nil, err
			}
			e.receivers[i] = r
		}
	}
	return e, nil
}

// Truth derives the ground truth from the node set. For handoff
// identities (one ID with disjoint active windows on several radios)
// Owner records the last holder in node order; Sybil/Malicious flags
// are identical across copies by construction.
func (e *Engine) Truth() Truth {
	t := Truth{
		Sybil:     make(map[NodeID]bool),
		Malicious: make(map[NodeID]bool),
		Owner:     make(map[NodeID]NodeID),
	}
	for _, n := range e.nodes {
		for _, id := range n.Identities {
			t.Owner[id.ID] = n.OwnID()
			if id.Sybil {
				t.Sybil[id.ID] = true
			} else if n.Malicious {
				t.Malicious[id.ID] = true
			}
		}
	}
	return t
}

// Logs returns the observers' reception logs keyed by node index.
func (e *Engine) Logs() map[int]*ReceptionLog { return e.logs }

// Nodes returns the engine's node slice (not a copy; treat as read-only).
func (e *Engine) Nodes() []*Node { return e.nodes }

// Run advances the simulation by dur, one beacon interval at a time:
// movers advance, then every identity of every node broadcasts once, and
// each observer resolves reception of every beacon through the radio and
// channel models.
func (e *Engine) Run(dur time.Duration) {
	steps := int(dur / e.cfg.Step)
	for s := 0; s < steps; s++ {
		for _, n := range e.nodes {
			n.Mover.Advance(e.cfg.Step, e.rng)
		}
		e.now += e.cfg.Step
		e.broadcast()
	}
}

// activeIdentities counts n's identities broadcasting at the current
// simulation time.
func (e *Engine) activeIdentities(n *Node) int {
	count := 0
	for _, id := range n.Identities {
		if id.ActiveAt(e.now) {
			count++
		}
	}
	return count
}

// broadcast delivers this interval's beacons to every observer.
func (e *Engine) broadcast() {
	positions := make([]mobility.Position, len(e.nodes))
	for i, n := range e.nodes {
		positions[i] = n.Mover.Position()
	}
	// Per-node displacement since last step drives shadow decorrelation.
	moved := make([]float64, len(e.nodes))
	if e.prevPositions != nil {
		for i := range positions {
			moved[i] = mobility.Distance(positions[i], e.prevPositions[i])
		}
	}
	e.prevPositions = positions
	// Self-reported positions: GPS fixes when modelled, truth otherwise.
	reported := positions
	if e.receivers != nil {
		reported = make([]mobility.Position, len(positions))
		for i, pos := range positions {
			x, y := e.receivers[i].Fix(e.now, pos.X, pos.Y)
			reported[i] = mobility.Position{X: x, Y: y}
		}
	}
	csRange := e.cfg.Channel.CarrierSenseRange
	for _, oIdx := range e.observers {
		log := e.logs[oIdx]
		rxPos := positions[oIdx]
		rxGain := e.nodes[oIdx].RxGainDBi

		// Offered load at this receiver: beacons/s from all other
		// physical radios within carrier-sense range (each radio sends
		// one beacon per identity per interval).
		var txPerSecond float64
		perSecond := 1 / e.cfg.Step.Seconds()
		for i, n := range e.nodes {
			if i == oIdx {
				continue
			}
			if mobility.Distance(positions[i], rxPos) <= csRange {
				txPerSecond += float64(e.activeIdentities(n)) * perSecond
			}
		}
		load := e.cfg.Channel.OfferedLoad(txPerSecond)

		for i, n := range e.nodes {
			if i == oIdx {
				continue
			}
			active := e.activeIdentities(n)
			if active == 0 {
				continue
			}
			trueDist := mobility.Distance(positions[i], rxPos)
			if maxRange := e.cfg.Channel.MaxReceptionRange; maxRange > 0 && trueDist > maxRange {
				log.LostSensitivity += active
				continue
			}
			// One correlated shadowing value per physical link per step:
			// every identity of this radio shares it (Observation 3).
			st := e.shadows[linkKey{tx: i, rx: oIdx}]
			if st == nil {
				st = &shadowState{}
				e.shadows[linkKey{tx: i, rx: oIdx}] = st
			}
			if st.live {
				// Decorrelate by the combined movement of both endpoints.
				rho := math.Exp(-(moved[i] + moved[oIdx]) / e.cfg.ShadowCorrDistanceM)
				st.z = rho*st.z + math.Sqrt(1-rho*rho)*e.rng.NormFloat64()
			} else {
				st.z = e.rng.NormFloat64()
				st.live = true
			}
			meanPL := e.cfg.Radio.MeanPathLossDB(e.now, trueDist)
			shadow := st.z * e.cfg.Radio.ShadowSigmaDB(e.now, trueDist)
			// One contention draw per physical link per interval: a radio
			// bursts all its identities' beacons back to back, so MAC
			// collisions hit them together (this shared loss pattern also
			// preserves Sybil-series similarity under load).
			collided := e.rng.Float64() > e.cfg.Channel.DeliveryProb(load)
			for _, id := range n.Identities {
				if !id.ActiveAt(e.now) {
					continue
				}
				pl := meanPL + shadow
				if e.cfg.NoiseDB > 0 {
					pl += e.cfg.NoiseDB * e.rng.NormFloat64()
				}
				txPower := id.TxPowerDBm
				if id.Power != nil {
					txPower += id.Power.Next(e.rng)
				}
				rxPower := radio.RxPowerDBm(txPower, rxGain, pl)
				outcome := channel.Received
				rssi := rxPower
				switch {
				case rxPower < e.cfg.Channel.RXSensitivityDBm:
					outcome = channel.LostBelowSensitivity
				case collided:
					outcome = channel.LostCollision
				}
				switch outcome {
				case channel.Received:
					claimed := mobility.Position{
						X: reported[i].X + id.ClaimedOffset.X,
						Y: reported[i].Y + id.ClaimedOffset.Y,
					}
					l := log.PerIdentity[id.ID]
					if l == nil {
						l = &IdentityLog{}
						log.PerIdentity[id.ID] = l
					}
					l.Obs = append(l.Obs, Obs{
						T:           e.now,
						RSSI:        rssi,
						ClaimedDist: mobility.Distance(claimed, rxPos),
						ClaimedX:    claimed.X - rxPos.X,
						ClaimedY:    claimed.Y - rxPos.Y,
						TrueDist:    trueDist,
					})
				case channel.LostBelowSensitivity:
					log.LostSensitivity++
				case channel.LostCollision:
					log.LostCollision++
				}
			}
		}
	}
}
