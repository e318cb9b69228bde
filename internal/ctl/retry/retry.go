// Package retry is the client-side half of the control plane's
// backpressure contract: a deterministic exponential backoff whose jitter
// comes from a seeded splitmix64 stream, so a scripted client replays the
// same retry schedule every run. The policy never sleeps — it only
// computes delays; the caller owns the clock.
package retry

import (
	"fmt"
	"time"
)

// Policy shapes a backoff schedule. The zero value is usable: 100ms base,
// doubling, 30s cap, 20% jitter, seed 0.
type Policy struct {
	// Base is the pre-jitter first delay; 0 means DefaultBase.
	Base time.Duration
	// Max caps the pre-jitter delay; 0 means DefaultMax.
	Max time.Duration
	// Factor is the per-attempt multiplier; 0 means DefaultFactor.
	Factor float64
	// Jitter spreads each delay uniformly over [delay*(1-Jitter), delay];
	// backoff without jitter synchronizes retry storms. 0 keeps
	// DefaultJitter; negative disables jitter entirely.
	Jitter float64
	// Seed drives the jitter stream.
	Seed int64
}

// Defaults for Policy zero fields.
const (
	DefaultBase   = 100 * time.Millisecond
	DefaultMax    = 30 * time.Second
	DefaultFactor = 2.0
	DefaultJitter = 0.2
)

// Backoff is one client's retry state. Not safe for concurrent use.
type Backoff struct {
	p       Policy
	attempt int
	rng     uint64
}

// New validates the policy and builds a fresh schedule.
func New(p Policy) (*Backoff, error) {
	if p.Base == 0 {
		p.Base = DefaultBase
	}
	if p.Max == 0 {
		p.Max = DefaultMax
	}
	if p.Factor == 0 { //coda:ordered-ok zero-value detection for defaulting, not an accumulated comparison
		p.Factor = DefaultFactor
	}
	if p.Jitter == 0 { //coda:ordered-ok zero-value detection for defaulting, not an accumulated comparison
		p.Jitter = DefaultJitter
	}
	if p.Base < 0 || p.Max < p.Base {
		return nil, fmt.Errorf("retry: base %v and max %v are inconsistent", p.Base, p.Max)
	}
	if p.Factor < 1 {
		return nil, fmt.Errorf("retry: factor %g would shrink delays", p.Factor)
	}
	if p.Jitter >= 1 {
		return nil, fmt.Errorf("retry: jitter %g must be below 1", p.Jitter)
	}
	return &Backoff{p: p, rng: splitmix64(uint64(p.Seed) + 0x9e3779b97f4a7c15)}, nil
}

// Next returns the delay before the next attempt. retryAfter is the
// server's Retry-After hint (0 when absent): the returned delay never
// undercuts it — the server knows how congested it is better than any
// client-side guess.
func (b *Backoff) Next(retryAfter time.Duration) time.Duration {
	d := float64(b.p.Base)
	for i := 0; i < b.attempt; i++ {
		d *= b.p.Factor
		if d >= float64(b.p.Max) {
			d = float64(b.p.Max)
			break
		}
	}
	b.attempt++
	delay := time.Duration(d)
	if b.p.Jitter > 0 {
		b.rng = splitmix64(b.rng)
		delay = time.Duration(d * (1 - b.p.Jitter*unit(b.rng)))
	}
	if delay < retryAfter {
		delay = retryAfter
	}
	return delay
}

// splitmix64 is the SplitMix64 mixing function.
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// unit maps a hash to [0, 1).
func unit(x uint64) float64 { return float64(x>>11) / (1 << 53) }
