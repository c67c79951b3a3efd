// Package cpumodel models the computational capabilities of the machines in
// the paper's testbed: hash rates of client/attacker CPUs (Fig. 3a), the
// server, and the IoT devices of Table 1, plus busy-time accounting that
// yields %CPU series (Fig. 9).
package cpumodel

import (
	"time"

	"github.com/tcppuzzles/tcppuzzles/internal/stats"
)

// Device is a machine class with a SHA-256 hashing rate and a random
// memory-access rate. Hash rates span ~9× across the paper's device mix
// while memory rates span only ~2× — DRAM latency is far more uniform than
// compute throughput, which is exactly why §7 proposes memory-bound
// puzzles for fairness.
type Device struct {
	// Name identifies the device class (e.g. "cpu1", "D3").
	Name string
	// HashRate is sustained SHA-256 operations per second.
	HashRate float64
	// MemAccessRate is sustained dependent (uncached) memory lookups per
	// second.
	MemAccessRate float64
}

// HashesIn returns the number of hashes the device performs in d.
func (d Device) HashesIn(dur time.Duration) float64 {
	return d.HashRate * dur.Seconds()
}

// TimeFor returns the time the device needs for n hash operations.
func (d Device) TimeFor(hashes float64) time.Duration {
	if d.HashRate <= 0 {
		return time.Duration(1<<62 - 1)
	}
	return time.Duration(hashes / d.HashRate * float64(time.Second))
}

// TimeForAccesses returns the time the device needs for n dependent memory
// lookups (the membound cost unit).
func (d Device) TimeForAccesses(accesses float64) time.Duration {
	if d.MemAccessRate <= 0 {
		return time.Duration(1<<62 - 1)
	}
	return time.Duration(accesses / d.MemAccessRate * float64(time.Second))
}

// Paper device profiles. Client CPU rates are calibrated so the fleet
// average of hashes in the 400 ms budget reproduces the paper's
// w_av = 140630 (Fig. 3a); the Raspberry Pi rates are Table 1 verbatim; the
// server rate is §7's 10.8 M hashes/second.
var (
	// CPU1 is the Intel Xeon E3-1260L quad-core at 2.4 GHz.
	CPU1 = Device{Name: "cpu1", HashRate: 450000, MemAccessRate: 16_000_000}
	// CPU2 is the Intel Xeon X3210 quad-core at 2.13 GHz.
	CPU2 = Device{Name: "cpu2", HashRate: 330000, MemAccessRate: 14_000_000}
	// CPU3 is the Intel Xeon at 3 GHz.
	CPU3 = Device{Name: "cpu3", HashRate: 274725, MemAccessRate: 13_000_000}
	// Server is the dual Xeon hexa-core HP Proliant (10.8 M hashes/s, §7).
	Server = Device{Name: "server", HashRate: 10_800_000, MemAccessRate: 20_000_000}

	// D1 is a Raspberry Pi Model B (700 MHz ARM11), Table 1.
	D1 = Device{Name: "D1", HashRate: 49617, MemAccessRate: 8_000_000}
	// D2 is a Raspberry Pi Zero (1 GHz ARM11), Table 1.
	D2 = Device{Name: "D2", HashRate: 68960, MemAccessRate: 9_000_000}
	// D3 is a Raspberry Pi 2 Model B (quad Cortex-A53 1.2 GHz), Table 1.
	D3 = Device{Name: "D3", HashRate: 70009, MemAccessRate: 10_500_000}
	// D4 is a Raspberry Pi 3 Model B (quad BCM2837 1.2 GHz), Table 1.
	D4 = Device{Name: "D4", HashRate: 74201, MemAccessRate: 11_000_000}
)

// ClientCPUs is the paper's client/attacker CPU mix (Fig. 3a).
func ClientCPUs() []Device { return []Device{CPU1, CPU2, CPU3} }

// IoTDevices is the paper's Raspberry Pi fleet (Table 1).
func IoTDevices() []Device { return []Device{D1, D2, D3, D4} }

// CPU serialises hash work on a device and accounts busy time so that
// utilisation can be plotted. CPU is not safe for concurrent use; the
// simulator is single-threaded.
type CPU struct {
	dev    Device
	freeAt time.Duration
	busy   *stats.Series
}

// NewCPU returns a CPU for the device, accounting busy time into buckets of
// the given width.
func NewCPU(dev Device, bucket time.Duration) *CPU {
	return &CPU{dev: dev, busy: stats.NewSeries(bucket)}
}

// Device returns the underlying device.
func (c *CPU) Device() Device { return c.dev }

// Charge schedules hashes at time now, queueing behind earlier work, and
// returns the completion time.
func (c *CPU) Charge(now time.Duration, hashes float64) time.Duration {
	start := now
	if c.freeAt > start {
		start = c.freeAt
	}
	dur := c.dev.TimeFor(hashes)
	done := start + dur
	c.busy.AddSpan(start, done, dur.Seconds())
	c.freeAt = done
	return done
}

// Backlog returns how far in the future the CPU is already committed at now.
func (c *CPU) Backlog(now time.Duration) time.Duration {
	if c.freeAt <= now {
		return 0
	}
	return c.freeAt - now
}

// Utilisation returns the per-bucket CPU utilisation in percent over
// [0, until).
func (c *CPU) Utilisation(until time.Duration) []float64 {
	vals := c.busy.Values(until)
	out := make([]float64, len(vals))
	scale := 100 / c.busy.Bucket().Seconds()
	for i, v := range vals {
		u := v * scale
		if u > 100 {
			u = 100
		}
		out[i] = u
	}
	return out
}

// HashCurve returns the Fig. 3a curve for a device: cumulative hashes at
// each sample step up to horizon.
func HashCurve(dev Device, step, horizon time.Duration) []float64 {
	var out []float64
	for t := step; t <= horizon; t += step {
		out = append(out, dev.HashesIn(t))
	}
	return out
}
