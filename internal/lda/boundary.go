// Package lda trains the density-adaptive decision boundary of
// Section IV-C: a line D = k*den + b in the (traffic density, normalized
// DTW distance) plane; a pair of identities whose distance falls at or
// below the line is declared a Sybil pair. The paper uses Linear
// Discriminant Analysis (Figure 10, k=0.00054, b=0.0483); logistic
// regression, perceptron and linear SVM trainers are provided for the
// classifier ablation, since the paper lists them as alternatives.
package lda

import (
	"errors"
	"fmt"
	"math"
)

// Point is one training example: a pairwise comparison at a known traffic
// density with its ground-truth label.
type Point struct {
	// Density in vehicles/km at the observing receiver.
	Density float64
	// Distance is the min-max-normalized DTW distance of the pair.
	Distance float64
	// SybilPair marks pairs of identities fabricated by the same attacker.
	SybilPair bool
}

// Boundary is the paper's decision rule: flag a pair when
// Distance <= K*Density + B.
type Boundary struct {
	K, B float64
}

// IsSybilPair applies the rule.
func (b Boundary) IsSybilPair(density, distance float64) bool {
	return distance <= b.Threshold(density)
}

// Threshold is the rule's right-hand side at density, K*density + B: the
// largest normalized distance flagged there. The explicit float64
// conversion rounds the product before the add, so no architecture
// fuses the two into one multiply-add, and every caller that derives a
// bound from the rule sees the same bits the rule compares against.
func (b Boundary) Threshold(density float64) float64 {
	return float64(b.K*density) + b.B
}

// String renders the boundary like the paper reports it.
func (b Boundary) String() string {
	return fmt.Sprintf("D <= %.5f*den + %.5f", b.K, b.B)
}

// Constant returns a fixed-threshold boundary (k = 0), as used in the
// paper's field test (threshold 0.05046 at 4 vhls/km).
func Constant(threshold float64) Boundary {
	return Boundary{K: 0, B: threshold}
}

// ErrDegenerate is returned when training data cannot produce a boundary
// in the paper's D <= k*den + b form.
var ErrDegenerate = errors.New("lda: degenerate training data")

// linear is an oriented linear classifier w1*x + w2*y <= c <=> Sybil pair,
// with x = density, y = distance.
type linear struct {
	w1, w2, c float64
}

// toBoundary converts an oriented linear rule into the paper's y-form.
// It requires the rule to be orientable so that "Sybil" is the low-
// distance side: after normalizing w2 > 0, Sybil iff y <= (c - w1*x)/w2.
func (l linear) toBoundary() (Boundary, error) {
	if l.w2 == 0 || math.IsNaN(l.w2) || math.IsInf(l.w2, 0) {
		return Boundary{}, fmt.Errorf("%w: vertical or invalid boundary (w2=%v)",
			ErrDegenerate, l.w2)
	}
	w1, w2, c := l.w1, l.w2, l.c
	if w2 < 0 {
		w1, w2, c = -w1, -w2, -c
	}
	return Boundary{K: -w1 / w2, B: c / w2}, nil
}

// split separates training points by label, erroring when either class is
// empty.
func split(points []Point) (sybil, normal []Point, err error) {
	for _, p := range points {
		if p.SybilPair {
			sybil = append(sybil, p)
		} else {
			normal = append(normal, p)
		}
	}
	if len(sybil) == 0 || len(normal) == 0 {
		return nil, nil, fmt.Errorf("%w: need both classes (got %d sybil, %d normal)",
			ErrDegenerate, len(sybil), len(normal))
	}
	return sybil, normal, nil
}

// Accuracy evaluates a boundary on labelled points.
func Accuracy(b Boundary, points []Point) float64 {
	if len(points) == 0 {
		return 0
	}
	correct := 0
	for _, p := range points {
		if b.IsSybilPair(p.Density, p.Distance) == p.SybilPair {
			correct++
		}
	}
	return float64(correct) / float64(len(points))
}
