// Package trace provides persistence for RSSI reception logs (CSV
// round trips, so runs can be recorded and replayed through the
// detector offline, the way the paper's laptops logged the field tests)
// and the scripted four-vehicle field-test scenarios of Sections III and
// VI.
package trace

import (
	"encoding/csv"
	"errors"
	"fmt"
	"io"
	"sort"
	"strconv"
	"time"

	"voiceprint/internal/timeseries"
	"voiceprint/internal/vanet"
)

// Position is a claimed sender position in the receiver's local frame
// (claimed minus receiver position, meters).
type Position struct {
	X, Y float64
}

// Record is one received beacon in a portable form. Pos carries the
// sender's claimed position when the log recorded one. The CSV form
// stays the four-column layout — the campaign golden hashes pin it — so
// claimed positions ride only the daemon's NDJSON wire form.
type Record struct {
	Receiver vanet.NodeID
	Sender   vanet.NodeID
	T        time.Duration
	RSSI     float64
	Pos      *Position
}

// FromLog flattens one receiver's reception log into records sorted by
// time then sender.
func FromLog(log *vanet.ReceptionLog) []Record {
	var out []Record
	for sender, l := range log.PerIdentity {
		for _, o := range l.Obs {
			rec := Record{
				Receiver: log.Receiver,
				Sender:   sender,
				T:        o.T,
				RSSI:     o.RSSI,
			}
			if o.ClaimedX != 0 || o.ClaimedY != 0 || o.ClaimedDist != 0 {
				rec.Pos = &Position{X: o.ClaimedX, Y: o.ClaimedY}
			}
			out = append(out, rec)
		}
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].T != out[j].T {
			return out[i].T < out[j].T
		}
		return out[i].Sender < out[j].Sender
	})
	return out
}

// ToSeries groups records (all assumed to belong to one receiver) into
// per-sender RSSI series, the detector's input format.
func ToSeries(records []Record) (map[vanet.NodeID]*timeseries.Series, error) {
	sorted := make([]Record, len(records))
	copy(sorted, records)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i].T < sorted[j].T })
	out := make(map[vanet.NodeID]*timeseries.Series)
	for _, r := range sorted {
		s := out[r.Sender]
		if s == nil {
			s = timeseries.New(64)
			out[r.Sender] = s
		}
		// Traces are untrusted input: reject NaN/Inf RSSI here rather
		// than letting it poison the detection statistics downstream.
		if err := s.AppendChecked(r.T, r.RSSI); err != nil {
			return nil, fmt.Errorf("trace: sender %d: %w", r.Sender, err)
		}
	}
	return out, nil
}

// csvHeader is the canonical column layout.
var csvHeader = []string{"receiver", "sender", "t_ms", "rssi_dbm"}

// WriteCSV writes records with a header row.
func WriteCSV(w io.Writer, records []Record) error {
	cw := csv.NewWriter(w)
	if err := cw.Write(csvHeader); err != nil {
		return fmt.Errorf("trace: write header: %w", err)
	}
	for _, r := range records {
		row := []string{
			strconv.FormatUint(uint64(r.Receiver), 10),
			strconv.FormatUint(uint64(r.Sender), 10),
			strconv.FormatInt(r.T.Milliseconds(), 10),
			strconv.FormatFloat(r.RSSI, 'f', 3, 64),
		}
		if err := cw.Write(row); err != nil {
			return fmt.Errorf("trace: write row: %w", err)
		}
	}
	cw.Flush()
	return cw.Error()
}

// ReadCSV parses records written by WriteCSV.
func ReadCSV(r io.Reader) ([]Record, error) {
	var out []Record
	if err := ScanCSV(r, func(rec Record) error {
		out = append(out, rec)
		return nil
	}); err != nil {
		return nil, err
	}
	return out, nil
}

// ScanCSV streams records written by WriteCSV through fn one row at a
// time, without buffering the whole trace in memory — the replay path of
// the streaming daemon feeds multi-hour logs through this. A non-nil
// error from fn aborts the scan and is returned verbatim.
func ScanCSV(r io.Reader, fn func(Record) error) error {
	cr := csv.NewReader(r)
	cr.ReuseRecord = true
	header, err := cr.Read()
	if err == io.EOF {
		return errors.New("trace: empty csv")
	}
	if err != nil {
		return fmt.Errorf("trace: read csv: %w", err)
	}
	if len(header) != len(csvHeader) || header[0] != csvHeader[0] {
		return fmt.Errorf("trace: unexpected header %v", header)
	}
	for line := 2; ; line++ {
		row, err := cr.Read()
		if err == io.EOF {
			return nil
		}
		if err != nil {
			return fmt.Errorf("trace: read csv: %w", err)
		}
		rec, err := parseRow(row)
		if err != nil {
			return fmt.Errorf("trace: row %d: %w", line, err)
		}
		if err := fn(rec); err != nil {
			return err
		}
	}
}

func parseRow(row []string) (Record, error) {
	if len(row) != 4 {
		return Record{}, fmt.Errorf("want 4 columns, got %d", len(row))
	}
	recv, err := strconv.ParseUint(row[0], 10, 32)
	if err != nil {
		return Record{}, fmt.Errorf("receiver: %w", err)
	}
	send, err := strconv.ParseUint(row[1], 10, 32)
	if err != nil {
		return Record{}, fmt.Errorf("sender: %w", err)
	}
	ms, err := strconv.ParseInt(row[2], 10, 64)
	if err != nil {
		return Record{}, fmt.Errorf("t_ms: %w", err)
	}
	rssi, err := strconv.ParseFloat(row[3], 64)
	if err != nil {
		return Record{}, fmt.Errorf("rssi: %w", err)
	}
	return Record{
		Receiver: vanet.NodeID(recv),
		Sender:   vanet.NodeID(send),
		T:        time.Duration(ms) * time.Millisecond,
		RSSI:     rssi,
	}, nil
}
