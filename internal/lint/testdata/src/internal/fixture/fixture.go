// Package fixture seeds one violation and one suppressed variant of every
// per-file rule. Each `// want "<rule>"` comment marks a line the linter
// must flag; every other line must stay clean.
package fixture

import (
	"math/rand"
	"sync"
	"time"

	"example.com/m/internal/api"
)

// counters exercises ordered-map-iteration and its escape hatches.
func counters(m map[string]int) []string {
	var keys []string
	for k := range m { // want "ordered-map-iteration"
		keys = append(keys, k)
	}

	//coda:ordered-ok fixture: a reason-bearing annotation suppresses the finding
	for k := range m {
		keys = append(keys, k)
	}

	total := 0
	for _, v := range m { // integer accumulation commutes: no finding
		total += v
	}
	if total > 0 {
		keys = append(keys, "positive")
	}
	return keys
}

// clocks exercises no-wall-clock for both the host clock and global rand.
func clocks(rng *rand.Rand) (time.Time, int) {
	now := time.Now() // want "no-wall-clock"

	//coda:ordered-ok fixture: the annotation works for every rule
	later := time.Now()
	_ = later

	n := rand.Intn(10) // want "no-wall-clock"
	n += rng.Intn(10)  // explicitly seeded generator: no finding
	return now, n
}

// spawn exercises no-stray-goroutines.
func spawn(done chan struct{}) {
	go func() { close(done) }() // want "no-stray-goroutines"

	//coda:ordered-ok fixture: annotated goroutine
	go func() {}()
}

var mu sync.Mutex // want "no-stray-goroutines"

//coda:ordered-ok fixture: annotated mutex
var mu2 sync.Mutex

// floats exercises float-eq. The mutex method calls are legal: only the
// sync package qualifier itself is flagged, not values of sync types.
func floats(a, b float64) bool {
	mu.Lock()
	mu2.Lock()
	if a == b { // want "float-eq"
		return true
	}
	//coda:ordered-ok fixture: annotated exact comparison
	if a != b {
		return a > b // ordering comparisons stay legal
	}
	return false
}

// errs exercises unchecked-error.
func errs() {
	api.Do() // want "unchecked-error"

	//coda:ordered-ok fixture: annotated discard
	api.Do()

	_ = api.Do() // explicit discard: no finding

	if err := api.Do(); err != nil { // handled: no finding
		_ = err
	}

	defer api.Do() // want "unchecked-error"
}
