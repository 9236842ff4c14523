package metrics

import (
	"math"
	"testing"

	"voiceprint/internal/vanet"
)

func testTruth() vanet.Truth {
	return vanet.Truth{
		Sybil:     map[vanet.NodeID]bool{101: true, 102: true},
		Malicious: map[vanet.NodeID]bool{1: true},
	}
}

func TestScore(t *testing.T) {
	heard := []vanet.NodeID{1, 2, 3, 101, 102}
	suspects := map[vanet.NodeID]bool{1: true, 101: true, 102: true, 3: true}
	c, err := Score(heard, suspects, testTruth())
	if err != nil {
		t.Fatal(err)
	}
	if c.TruePositives != 3 {
		t.Errorf("TP = %d, want 3", c.TruePositives)
	}
	if c.FalsePositives != 1 {
		t.Errorf("FP = %d, want 1", c.FalsePositives)
	}
	if c.Illegitimate != 3 || c.Normal != 2 {
		t.Errorf("denominators = (%d, %d), want (3, 2)", c.Illegitimate, c.Normal)
	}
	dr, ok := c.DR()
	if !ok || dr != 1 {
		t.Errorf("DR = %v/%v, want 1", dr, ok)
	}
	fpr, ok := c.FPR()
	if !ok || fpr != 0.5 {
		t.Errorf("FPR = %v/%v, want 0.5", fpr, ok)
	}
}

func TestScoreRejectsUnheardSuspect(t *testing.T) {
	heard := []vanet.NodeID{2}
	suspects := map[vanet.NodeID]bool{99: true}
	if _, err := Score(heard, suspects, testTruth()); err == nil {
		t.Error("flagging an unheard identity should error")
	}
	// A false entry for an unheard ID is harmless.
	suspects = map[vanet.NodeID]bool{99: false, 2: true}
	if _, err := Score(heard, suspects, testTruth()); err != nil {
		t.Errorf("false-valued suspect entry should be ignored: %v", err)
	}
}

func TestDRUndefinedWithoutIllegitimate(t *testing.T) {
	c := Counts{Normal: 5}
	if _, ok := c.DR(); ok {
		t.Error("DR should be undefined with zero illegitimate")
	}
	if fpr, ok := c.FPR(); !ok || fpr != 0 {
		t.Error("FPR should be defined and 0")
	}
}

func TestFPRUndefinedWithoutNormal(t *testing.T) {
	c := Counts{Illegitimate: 4, TruePositives: 2}
	if _, ok := c.FPR(); ok {
		t.Error("FPR should be undefined with zero normal")
	}
	if dr, ok := c.DR(); !ok || dr != 0.5 {
		t.Errorf("DR = %v/%v, want 0.5", dr, ok)
	}
}

func TestAggregator(t *testing.T) {
	var a Aggregator
	if _, err := a.MeanDR(); err != ErrNoInstances {
		t.Errorf("empty MeanDR err = %v, want ErrNoInstances", err)
	}
	if _, err := a.MeanFPR(); err != ErrNoInstances {
		t.Errorf("empty MeanFPR err = %v, want ErrNoInstances", err)
	}
	a.Add(Counts{TruePositives: 4, Illegitimate: 4, Normal: 10})                    // DR 1, FPR 0
	a.Add(Counts{TruePositives: 1, Illegitimate: 2, FalsePositives: 1, Normal: 10}) // DR 0.5, FPR 0.1
	a.Add(Counts{Normal: 5})                                                        // DR undefined, FPR 0
	dr, err := a.MeanDR()
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(dr-0.75) > 1e-12 {
		t.Errorf("MeanDR = %v, want 0.75 (undefined instance skipped)", dr)
	}
	fpr, err := a.MeanFPR()
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(fpr-0.1/3) > 1e-12 {
		t.Errorf("MeanFPR = %v, want %v", fpr, 0.1/3)
	}
}
