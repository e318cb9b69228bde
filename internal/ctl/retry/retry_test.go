package retry

import (
	"testing"
	"time"
)

func TestDeterministic(t *testing.T) {
	a, err := New(Policy{Seed: 42})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	b, _ := New(Policy{Seed: 42})
	for i := 0; i < 20; i++ {
		if da, db := a.Next(0), b.Next(0); da != db {
			t.Fatalf("attempt %d: same seed diverged (%v vs %v)", i, da, db)
		}
	}
	c, _ := New(Policy{Seed: 43})
	d := a
	d.attempt = 0
	same := 0
	for i := 0; i < 10; i++ {
		if c.Next(0) == d.Next(0) {
			same++
		}
	}
	if same == 10 {
		t.Fatal("different seeds produced identical jitter streams")
	}
}

func TestGrowthAndCap(t *testing.T) {
	b, err := New(Policy{Base: time.Second, Max: 8 * time.Second, Factor: 2, Jitter: -1})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	want := []time.Duration{time.Second, 2 * time.Second, 4 * time.Second, 8 * time.Second, 8 * time.Second}
	for i, w := range want {
		if got := b.Next(0); got != w {
			t.Fatalf("attempt %d: delay %v, want %v", i, got, w)
		}
	}
	b.attempt = 0
	if got := b.Next(0); got != time.Second {
		t.Fatalf("after a reset: delay %v, want %v", got, time.Second)
	}
}

func TestJitterBounds(t *testing.T) {
	b, err := New(Policy{Base: time.Second, Max: time.Second, Jitter: 0.5, Seed: 7})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	for i := 0; i < 100; i++ {
		d := b.Next(0)
		if d < 500*time.Millisecond || d > time.Second {
			t.Fatalf("attempt %d: delay %v outside [500ms, 1s]", i, d)
		}
	}
}

func TestHonorsRetryAfter(t *testing.T) {
	b, err := New(Policy{Base: 10 * time.Millisecond, Max: time.Second, Jitter: -1})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	if got := b.Next(3 * time.Second); got != 3*time.Second {
		t.Fatalf("delay %v undercuts Retry-After 3s", got)
	}
	// Once backoff exceeds the hint, backoff wins.
	b2, _ := New(Policy{Base: 10 * time.Second, Max: 10 * time.Second, Jitter: -1})
	if got := b2.Next(3 * time.Second); got != 10*time.Second {
		t.Fatalf("delay %v, want the larger backoff 10s", got)
	}
}

func TestRejectsBadPolicies(t *testing.T) {
	for _, p := range []Policy{
		{Base: time.Second, Max: time.Millisecond},
		{Factor: 0.5},
		{Jitter: 1.5},
		{Base: -time.Second},
	} {
		if _, err := New(p); err == nil {
			t.Errorf("New(%+v) accepted a bad policy", p)
		}
	}
}
