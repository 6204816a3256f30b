// admission.go is the SLO-driven load shedder. Two independent signals
// deny a request before it can wait for the forward lock:
//
//   - Inflight bound: when more than MaxInflight requests are inside
//     Allocate, new arrivals are shed immediately. This is the hard
//     backpressure valve — queue depth is bounded no matter how slow
//     the model is.
//   - SLO latch: a background checker compares the windowed p99 of
//     serve latency (the same estimator /statusz and /metrics export)
//     against the configured objective. One breach latches shed mode
//     on; it latches off only after the p99 has stayed below
//     sloRecoverFrac of the objective for sloRecoverStreak consecutive
//     checks, so the server does not flap at the boundary.
//
// Cache hits are never shed: they cost ~1µs and touch neither the
// forward lock nor the model, so serving them during overload strictly
// reduces pressure. Shed requests surface as ErrOverloaded, which the
// HTTP layer maps to 429 + Retry-After.
package serve

import (
	"errors"
	"time"
)

// ErrOverloaded is returned by Allocate when admission control sheds
// the request (inflight bound exceeded or SLO shed mode latched).
var ErrOverloaded = errors.New("serve: overloaded, request shed")

const (
	// sloRecoverFrac is the hysteresis band: shed mode unlatches only
	// once p99 < sloRecoverFrac × SLO.
	sloRecoverFrac = 0.8
	// sloRecoverStreak is how many consecutive healthy checks unlatch
	// shed mode.
	sloRecoverStreak = 2
	// defaultSLOEvery is the SLO checker period.
	defaultSLOEvery = 250 * time.Millisecond
	// RetryAfterSeconds is the hint sent with 429 responses.
	RetryAfterSeconds = 1
)

// admit decides whether a cache-missing request may wait for the
// forward lock. Called with the request already counted in
// serve_inflight, so the bound uses ">" — a lone request never sheds
// itself.
func (s *Service) admit() error {
	if s.maxInflight > 0 && int(s.inflight.Value()) > s.maxInflight {
		s.shedTotal.Inc()
		return ErrOverloaded
	}
	if s.sloP99 > 0 && s.sloShed.Load() {
		s.shedTotal.Inc()
		return ErrOverloaded
	}
	return nil
}

// evalSLO runs one checker step: compare the windowed p99 against the
// objective and move the latch. Exposed as a method so tests can step
// the controller deterministically; the background loop just calls it
// on a ticker.
func (s *Service) evalSLO() {
	if s.sloP99 <= 0 {
		return
	}
	p99 := s.latQ.Query(0.99)
	switch {
	case p99 > s.sloP99:
		s.belowStreak = 0
		if !s.sloShed.Load() {
			s.sloShed.Store(true)
			s.shedGauge.Set(1)
		}
		s.sloBreach.Inc()
	case s.sloShed.Load():
		if p99 < sloRecoverFrac*s.sloP99 {
			s.belowStreak++
			if s.belowStreak >= sloRecoverStreak {
				s.sloShed.Store(false)
				s.shedGauge.Set(0)
				s.belowStreak = 0
			}
		} else {
			s.belowStreak = 0
		}
	}
}

// sloLoop drives evalSLO until Close.
func (s *Service) sloLoop() {
	defer s.wg.Done()
	tick := time.NewTicker(s.sloEvery)
	defer tick.Stop()
	for {
		select {
		case <-s.stopBG:
			return
		case <-tick.C:
			s.evalSLO()
		}
	}
}

// ShedMode reports whether the SLO latch currently sheds new work.
func (s *Service) ShedMode() bool { return s.sloShed.Load() }
