// Package costmodel implements AutoIndex's index benefit estimation (paper
// §V): it computes the critical cost features — data-processing cost C^data
// from the what-if planner, and the index-maintenance features C^io and
// C^cpu from the paper's formulas — and feeds them to a one-layer deep
// regression model cost(q) = Sigmoid(W·C + b) trained on logged execution
// history, replacing the static-weight formula traditional estimators use.
package costmodel

import (
	"fmt"
	"math"
	"math/rand"
)

// Features are the per-query cost features of paper §V:
//
//	CData — data processing cost (what-if plan cost for the read part)
//	CIO   — index update IO cost, |pages|·seq_page_cost
//	CCPU  — index update CPU cost, t_start + t_running
type Features struct {
	CData float64
	CIO   float64
	CCPU  float64
}

func (f Features) vector() [3]float64 { return [3]float64{f.CData, f.CIO, f.CCPU} }

// Sample is one logged observation: features of a statement under some
// index configuration, plus the cost the engine actually measured.
type Sample struct {
	Features Features
	Actual   float64
}

// Regression is the paper's one-layer deep regression model. The sigmoid
// output is scaled by the maximum target seen at training time so costs are
// unbounded-positive. Feature values are max-normalized before the layer.
type Regression struct {
	W       [3]float64
	B       float64
	featMax [3]float64
	costMax float64
	trained bool
	lr      float64
	epochs  int
	seed    int64
	// gen counts successful Fit calls; the estimator's what-if cost cache
	// keys its epoch on it so retraining flushes cached predictions.
	gen uint64
}

// NewRegression creates an untrained model with the given SGD settings.
// Zero values select defaults (lr 0.5, 400 epochs, seed 1).
func NewRegression(lr float64, epochs int, seed int64) *Regression {
	if lr <= 0 {
		lr = 0.5
	}
	if epochs <= 0 {
		epochs = 400
	}
	if seed == 0 {
		seed = 1
	}
	return &Regression{lr: lr, epochs: epochs, seed: seed}
}

// Trained reports whether Fit has run.
func (r *Regression) Trained() bool { return r.trained }

// Fit trains the model with mini-batch SGD on the samples.
func (r *Regression) Fit(samples []Sample) error {
	if len(samples) < 4 {
		return fmt.Errorf("costmodel: need at least 4 samples, got %d", len(samples))
	}
	// Normalization constants.
	r.featMax = [3]float64{1, 1, 1}
	r.costMax = 1
	for _, s := range samples {
		v := s.Features.vector()
		for i := 0; i < 3; i++ {
			if v[i] > r.featMax[i] {
				r.featMax[i] = v[i]
			}
		}
		if s.Actual > r.costMax {
			r.costMax = s.Actual
		}
	}
	r.costMax *= 1.2 // headroom so sigmoid targets stay below saturation

	rng := rand.New(rand.NewSource(r.seed))
	for i := range r.W {
		r.W[i] = rng.Float64()*0.2 - 0.1
	}
	r.B = 0

	idx := make([]int, len(samples))
	for i := range idx {
		idx[i] = i
	}
	lr := r.lr
	for epoch := 0; epoch < r.epochs; epoch++ {
		rng.Shuffle(len(idx), func(a, b int) { idx[a], idx[b] = idx[b], idx[a] })
		for _, i := range idx {
			s := samples[i]
			x := r.normalize(s.Features)
			y := s.Actual / r.costMax
			z := r.W[0]*x[0] + r.W[1]*x[1] + r.W[2]*x[2] + r.B
			p := sigmoid(z)
			err := p - y
			grad := err * p * (1 - p) // dMSE/dz
			for k := 0; k < 3; k++ {
				r.W[k] -= lr * grad * x[k]
			}
			r.B -= lr * grad
		}
		lr = r.lr / (1 + float64(epoch)/float64(r.epochs))
	}
	r.trained = true
	r.gen++
	return nil
}

// Generation counts successful trainings; it changes exactly when Predict's
// behavior can change.
func (r *Regression) Generation() uint64 { return r.gen }

// Predict estimates the execution cost for the features.
func (r *Regression) Predict(f Features) float64 {
	if !r.trained {
		return StaticCost(f)
	}
	x := r.normalize(f)
	z := r.W[0]*x[0] + r.W[1]*x[1] + r.W[2]*x[2] + r.B
	return sigmoid(z) * r.costMax
}

func (r *Regression) normalize(f Features) [3]float64 {
	v := f.vector()
	for i := 0; i < 3; i++ {
		v[i] /= r.featMax[i]
		if v[i] > 4 { // clamp out-of-distribution features
			v[i] = 4
		}
	}
	return v
}

func sigmoid(z float64) float64 { return 1 / (1 + math.Exp(-z)) }

// StaticCost is the traditional fixed-weight combination the paper's §V-B
// criticizes (e.g. C^io + 0.01·C^cpu); kept as the ablation baseline and the
// untrained fallback.
func StaticCost(f Features) float64 {
	return f.CData + f.CIO + 0.01*f.CCPU
}

// CrossValidate runs k-fold cross validation (paper §VI-A uses 9-fold) and
// returns the mean relative absolute error on held-out folds.
func CrossValidate(samples []Sample, k int, lr float64, epochs int, seed int64) (float64, error) {
	if k < 2 || len(samples) < k {
		return 0, fmt.Errorf("costmodel: cannot %d-fold with %d samples", k, len(samples))
	}
	rng := rand.New(rand.NewSource(seed + 17))
	shuffled := make([]Sample, len(samples))
	copy(shuffled, samples)
	rng.Shuffle(len(shuffled), func(a, b int) { shuffled[a], shuffled[b] = shuffled[b], shuffled[a] })

	var totalErr float64
	var count int
	for fold := 0; fold < k; fold++ {
		var train, test []Sample
		for i, s := range shuffled {
			if i%k == fold {
				test = append(test, s)
			} else {
				train = append(train, s)
			}
		}
		m := NewRegression(lr, epochs, seed)
		if err := m.Fit(train); err != nil {
			return 0, err
		}
		for _, s := range test {
			pred := m.Predict(s.Features)
			denom := math.Max(s.Actual, 1e-6)
			totalErr += math.Abs(pred-s.Actual) / denom
			count++
		}
	}
	return totalErr / float64(count), nil
}
