package main

import (
	"crypto/sha256"
	"encoding/binary"
	"math"
	"syscall"
	"time"
)

// The reference host is a shared 2-vCPU VM whose speed moves in bursts
// shorter than a second and in phases of minutes: a neighbour slows
// compute by up to 1.6× and memory access by up to 3×, and raw medians of
// consecutive 10 s runs have differed by 2.6×, which no amount of
// repetition inside one run averages out. So every timing is divided by
// how slow the host was while it was taken: a calibrator times a fixed
// compute chunk (SHA-256 over a 4 KiB buffer) and a fixed memory chunk
// (dependent loads through a 16 MiB table) and reports the geometric mean
// of their slowdowns against the constants below. Timings are therefore
// in reference-host milliseconds: what the operation would take with the
// host at its unloaded speed. README.md records what this was measured
// against (other chunks, other blends, blends fitted per run) and what
// error remains.
const (
	calibHashes   = 2000
	calibLoads    = 100_000
	calibTableLen = 1 << 22 // uint32 entries: 16 MiB, beyond the caches

	// What the two chunks take on the unloaded reference host (Xeon
	// 2.6 GHz). They fix the unit and never change; only ratios between
	// runs matter.
	refHashChunk = 6600 * time.Microsecond
	refLoadChunk = 10000 * time.Microsecond
)

// calibrator holds the chunks' working memory. The table is mapped
// outside the Go heap so that it neither counts as retained heap nor
// moves the garbage collector's pacing for the program under test.
type calibrator struct {
	table []byte
	buf   [4096]byte
	at    uint32
}

func newCalibrator() (*calibrator, error) {
	table, err := syscall.Mmap(-1, 0, calibTableLen*4, syscall.PROT_READ|syscall.PROT_WRITE, syscall.MAP_ANON|syscall.MAP_PRIVATE)
	if err != nil {
		return nil, err
	}
	// One cycle through every entry (a full-period affine map: the
	// multiplier is 1 mod 4 and the increment odd), so the loads never
	// settle into a loop that fits a cache.
	for i := uint32(0); i < calibTableLen; i++ {
		binary.LittleEndian.PutUint32(table[i*4:], (i*2654435761+12345)%calibTableLen)
	}
	return &calibrator{table: table}, nil
}

func (c *calibrator) close() error { return syscall.Munmap(c.table) }

// slowdown times both chunks and returns how slow the host is right now:
// 1 at reference speed, 2 when everything takes twice as long.
func (c *calibrator) slowdown() float64 {
	t := time.Now()
	for i := 0; i < calibHashes; i++ {
		sum := sha256.Sum256(c.buf[:])
		c.buf[0] = sum[0]
	}
	hash := time.Since(t)
	t = time.Now()
	at := c.at
	for i := 0; i < calibLoads; i++ {
		at = binary.LittleEndian.Uint32(c.table[at*4:])
	}
	c.at = at
	load := time.Since(t)
	return math.Sqrt(float64(hash) / float64(refHashChunk) * float64(load) / float64(refLoadChunk))
}
