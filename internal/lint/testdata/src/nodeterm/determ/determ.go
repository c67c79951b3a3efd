// Fixture: nodeterm inside a deterministic package (type-checked as
// internal/netsim). Positive cases carry want comments; suppressed cases
// carry a //tcpz:allow with a reason and must stay silent.
package netsim

import (
	crand "crypto/rand"
	"math/rand"
	"os"
	"time"
)

func wallClock() {
	_ = time.Now()                // want `time\.Now is nondeterministic`
	_ = time.Since(time.Time{})   // want `time\.Since is nondeterministic`
	ch := time.After(time.Second) // want `time\.After is nondeterministic`
	_ = ch
	time.Sleep(time.Millisecond) // want `time\.Sleep is nondeterministic`
	t := time.NewTimer(1)        // want `time\.NewTimer is nondeterministic`
	_ = t
	f := time.Now // want `time\.Now is nondeterministic`
	_ = f
}

func globalRand() {
	_ = rand.Intn(4)     // want `math/rand\.Intn draws from the process-global source`
	_ = rand.Float64()   // want `math/rand\.Float64 draws from the process-global source`
	rand.Shuffle(1, nil) // want `math/rand\.Shuffle draws from the process-global source`
	var b [8]byte
	_, _ = crand.Read(b[:]) // want `crypto/rand\.Read is nondeterministic`
}

func environment() {
	_ = os.Getenv("HOME")       // want `os\.Getenv is nondeterministic`
	_, _ = os.LookupEnv("HOME") // want `os\.LookupEnv is nondeterministic`
}

func goroutines() {
	go wallClock() // want `go statement outside`
}

// Seeded randomness and engine-style time arithmetic are the blessed
// seams: none of these may be reported.
func blessed(seed int64) {
	r := rand.New(rand.NewSource(seed))
	_ = r.Intn(4)
	_ = r.Float64()
	var virtual time.Duration
	virtual += 3 * time.Millisecond
	_ = time.Unix(0, 0).Add(virtual)
}

func suppressed() {
	_ = time.Now() //tcpz:allow nodeterm — wall clock feeds observability stats only, never simulation state
	//tcpz:allow nodeterm — debug-only jitter measurement, results-neutral by construction
	_ = rand.Int()
	//tcpz:allow nodeterm — reviewed concurrency, ordered by an explicit barrier
	go environment()
}
