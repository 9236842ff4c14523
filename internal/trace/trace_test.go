package trace

import (
	"bytes"
	"errors"
	"math"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"
	"time"

	"voiceprint/internal/vanet"
)

func sampleRecords() []Record {
	return []Record{
		{Receiver: 3, Sender: 1, T: 100 * time.Millisecond, RSSI: -70.125},
		{Receiver: 3, Sender: 101, T: 100 * time.Millisecond, RSSI: -67.5},
		{Receiver: 3, Sender: 1, T: 200 * time.Millisecond, RSSI: -70.5},
	}
}

func TestCSVRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	recs := sampleRecords()
	if err := WriteCSV(&buf, recs); err != nil {
		t.Fatal(err)
	}
	got, err := ReadCSV(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(recs) {
		t.Fatalf("round trip lost records: %d vs %d", len(got), len(recs))
	}
	for i := range recs {
		if got[i] != recs[i] {
			t.Errorf("record %d: %+v != %+v", i, got[i], recs[i])
		}
	}
}

func TestCSVErrors(t *testing.T) {
	if _, err := ReadCSV(strings.NewReader("")); err == nil {
		t.Error("empty input should error")
	}
	if _, err := ReadCSV(strings.NewReader("a,b\n1,2\n")); err == nil {
		t.Error("wrong header should error")
	}
	bad := "receiver,sender,t_ms,rssi_dbm\nx,1,100,-70\n"
	if _, err := ReadCSV(strings.NewReader(bad)); err == nil {
		t.Error("bad receiver should error")
	}
	bad2 := "receiver,sender,t_ms,rssi_dbm\n1,1,abc,-70\n"
	if _, err := ReadCSV(strings.NewReader(bad2)); err == nil {
		t.Error("bad time should error")
	}
}

func TestScanCSVStreams(t *testing.T) {
	var buf bytes.Buffer
	recs := sampleRecords()
	if err := WriteCSV(&buf, recs); err != nil {
		t.Fatal(err)
	}
	var got []Record
	if err := ScanCSV(bytes.NewReader(buf.Bytes()), func(r Record) error {
		got = append(got, r)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if len(got) != len(recs) {
		t.Fatalf("streamed %d records, want %d", len(got), len(recs))
	}
	for i := range recs {
		if got[i] != recs[i] {
			t.Errorf("record %d: %+v != %+v", i, got[i], recs[i])
		}
	}

	// A callback error aborts the scan and propagates verbatim.
	sentinel := strings.NewReader(buf.String())
	calls := 0
	err := ScanCSV(sentinel, func(Record) error {
		calls++
		return errSentinel
	})
	if err != errSentinel {
		t.Errorf("callback error = %v, want sentinel", err)
	}
	if calls != 1 {
		t.Errorf("scan continued after callback error: %d calls", calls)
	}

	// Malformed rows fail mid-stream with the row number.
	bad := "receiver,sender,t_ms,rssi_dbm\n1,1,100,-70\n1,1,nope,-70\n"
	if err := ScanCSV(strings.NewReader(bad), func(Record) error { return nil }); err == nil || !strings.Contains(err.Error(), "row 3") {
		t.Errorf("malformed row error = %v, want row 3 context", err)
	}
	if err := ScanCSV(strings.NewReader(""), func(Record) error { return nil }); err == nil {
		t.Error("empty input should error")
	}
}

var errSentinel = errors.New("sentinel")

func TestFromLogAndToSeries(t *testing.T) {
	log := &vanet.ReceptionLog{
		Receiver: 3,
		PerIdentity: map[vanet.NodeID]*vanet.IdentityLog{
			1: {Obs: []vanet.Obs{
				{T: 200 * time.Millisecond, RSSI: -71},
				{T: 100 * time.Millisecond, RSSI: -70},
			}},
			2: {Obs: []vanet.Obs{{T: 150 * time.Millisecond, RSSI: -80}}},
		},
	}
	recs := FromLog(log)
	if len(recs) != 3 {
		t.Fatalf("got %d records", len(recs))
	}
	// Sorted by time.
	if recs[0].T != 100*time.Millisecond || recs[2].T != 200*time.Millisecond {
		t.Errorf("records not time-sorted: %+v", recs)
	}
	series, err := ToSeries(recs)
	if err != nil {
		t.Fatal(err)
	}
	if series[1].Len() != 2 || series[2].Len() != 1 {
		t.Errorf("series lengths wrong")
	}
	if series[1].At(0).RSSI != -70 {
		t.Errorf("series order wrong: %v", series[1].Values())
	}
}

func TestAreasValid(t *testing.T) {
	for _, a := range AllAreas() {
		t.Run(a.Name, func(t *testing.T) {
			if err := a.Validate(); err != nil {
				t.Errorf("area invalid: %v", err)
			}
		})
	}
}

func TestAreaValidation(t *testing.T) {
	a := CampusArea()
	a.Name = ""
	if err := a.Validate(); err == nil {
		t.Error("empty name should error")
	}
	b := CampusArea()
	b.MeanSpeedMS = 0
	if err := b.Validate(); err == nil {
		t.Error("zero speed should error")
	}
	c := CampusArea()
	c.Stops = []StopEvent{{At: c.Duration, Hold: time.Minute}}
	if err := c.Validate(); err == nil {
		t.Error("stop outside window should error")
	}
}

func TestStopped(t *testing.T) {
	a := UrbanArea()
	if !a.stopped(4*time.Minute + 10*time.Second) {
		t.Error("should be stopped during the first red light")
	}
	if a.stopped(0) {
		t.Error("should be moving at t=0")
	}
}

func TestBuildConvoyGeometry(t *testing.T) {
	eng, err := NewFieldTestEngine(HighwayArea(), 7)
	if err != nil {
		t.Fatal(err)
	}
	nodes := eng.Nodes()
	if len(nodes) != 4 {
		t.Fatalf("got %d nodes", len(nodes))
	}
	if !nodes[0].Malicious || len(nodes[0].Identities) != 3 {
		t.Error("node 0 should be malicious with 3 identities")
	}
	truth := eng.Truth()
	if !truth.Sybil[Sybil101ID] || !truth.Sybil[Sybil102ID] || !truth.Malicious[MaliciousID] {
		t.Errorf("truth wrong: %+v", truth)
	}
	// Convoy geometry at t=0: node2 within ~4 m of the leader, node3
	// behind, node4 ahead.
	leaderPos := nodes[0].Mover.Position()
	node2Pos := nodes[1].Mover.Position()
	node3Pos := nodes[2].Mover.Position()
	node4Pos := nodes[3].Mover.Position()
	if d := distance(leaderPos.X, leaderPos.Y, node2Pos.X, node2Pos.Y); d < 2.5 || d > 4.5 {
		t.Errorf("node2 distance %v, want 2.75-3.5ish", d)
	}
	if node3Pos.X >= leaderPos.X {
		t.Error("node3 should start behind the leader")
	}
	if node4Pos.X <= leaderPos.X {
		t.Error("node4 should start ahead of the leader")
	}
}

func TestConvoyStaysInFormation(t *testing.T) {
	eng, err := NewFieldTestEngine(RuralArea(), 8)
	if err != nil {
		t.Fatal(err)
	}
	eng.Run(2 * time.Minute)
	nodes := eng.Nodes()
	leader := nodes[0].Mover.Position()
	node3 := nodes[2].Mover.Position()
	gap := leader.X - node3.X
	if gap < 195*0.8 || gap > 195*1.2 {
		t.Errorf("node3 gap drifted to %v, want ~195", gap)
	}
	if leader.X < 500 {
		t.Errorf("convoy barely moved: leader at %v", leader.X)
	}
}

func TestConvoyFreezesAtRedLight(t *testing.T) {
	eng, err := NewFieldTestEngine(UrbanArea(), 9)
	if err != nil {
		t.Fatal(err)
	}
	// Run to the middle of the first stop (4:00 + 45 s hold).
	eng.Run(4*time.Minute + 10*time.Second)
	x1 := eng.Nodes()[0].Mover.Position().X
	eng.Run(20 * time.Second) // still inside the hold
	x2 := eng.Nodes()[0].Mover.Position().X
	if x2-x1 > 1 {
		t.Errorf("leader moved %.1f m during the red light", x2-x1)
	}
}

func distance(x1, y1, x2, y2 float64) float64 {
	dx, dy := x1-x2, y1-y2
	return math.Sqrt(dx*dx + dy*dy)
}

func TestCSVRoundTripProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	f := func(n uint8) bool {
		recs := make([]Record, int(n)%32)
		for i := range recs {
			recs[i] = Record{
				Receiver: vanet.NodeID(rng.Uint32()),
				Sender:   vanet.NodeID(rng.Uint32()),
				T:        time.Duration(rng.Intn(1e6)) * time.Millisecond,
				// Three decimals survive the CSV format exactly.
				RSSI: float64(rng.Intn(95000)) / -1000,
			}
		}
		var buf bytes.Buffer
		if err := WriteCSV(&buf, recs); err != nil {
			return false
		}
		got, err := ReadCSV(&buf)
		if err != nil {
			return false
		}
		if len(got) != len(recs) {
			return false
		}
		for i := range recs {
			if got[i] != recs[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100, Rand: rng}); err != nil {
		t.Error(err)
	}
}
