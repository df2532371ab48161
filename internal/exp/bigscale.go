package exp

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"time"

	"radar/internal/core"
	"radar/internal/quant"
	"radar/internal/store"
)

// BigScaleResult is the GB-scale streaming-protection experiment: a
// synthetic multi-GB store checkpoint is written, mapped, protected,
// scanned, attacked, and recovered without the weights ever being loaded
// into process memory. The headline numbers are the streaming scan
// throughput, the incremental (dirty-only) scan latency, and the resident
// high-water mark relative to the checkpoint size — the proof that the
// mmap path protects checkpoints far larger than RAM. Written as
// BENCH_bigscale.json by radar-bench -exp bigscale.
type BigScaleResult struct {
	// Bytes is the checkpoint's weight payload (one byte per int8 weight).
	Bytes int64 `json:"bytes"`
	// Layers is the section count of the synthetic checkpoint.
	Layers int `json:"layers"`
	// Mapped records whether the mmap reader won (false = RAM fallback,
	// which voids the RSS claims).
	Mapped bool `json:"mapped"`
	// backing is the checkpoint's Backing, for Render.
	backing string
	// GOMAXPROCS records the host parallelism the numbers were taken at.
	GOMAXPROCS int `json:"gomaxprocs"`

	// WriteMBs is the streaming checkpoint-write throughput.
	WriteMBs float64 `json:"write_mbps"`
	// ProtectSeconds and ProtectMBs time the initial golden-signature pass.
	ProtectSeconds float64 `json:"protect_seconds"`
	ProtectMBs     float64 `json:"protect_mbps"`
	// ScanSeconds and ScanMBs time one full streaming scan.
	ScanSeconds float64 `json:"scan_seconds"`
	ScanMBs     float64 `json:"scan_mbps"`
	// DirtyScanSeconds is the incremental ScanDirty latency after the
	// injected flips (two dirty layers, everything else skipped).
	DirtyScanSeconds float64 `json:"dirty_scan_seconds"`
	// RescanSeconds is the post-recovery full verification scan.
	RescanSeconds float64 `json:"rescan_seconds"`
	// SyncSeconds is the msync of the recovered (dirty) sections.
	SyncSeconds float64 `json:"sync_seconds"`

	// Flips, Detected, Zeroed summarize the inject→detect→recover round
	// trip on the mapped image.
	Flips    int `json:"flips"`
	Detected int `json:"detected"`
	Zeroed   int `json:"zeroed"`

	// RSSPeakBytes is the process resident high-water mark (VmHWM) after
	// the full pipeline; RSSRatio divides it by Bytes. RSSEnforced records
	// whether the ratio was asserted (it is skipped when the peak baseline
	// could not be reset and was already polluted by earlier experiments
	// in the same process, or on the RAM fallback).
	RSSPeakBytes int64   `json:"rss_peak_bytes"`
	RSSRatio     float64 `json:"rss_ratio"`
	RSSEnforced  bool    `json:"rss_enforced"`
}

// bigScaleLayerBytes picks the synthetic section size: 64 MiB slabs at GB
// scale, shrinking for capped runs so the checkpoint still has enough
// layers to exercise streaming release.
func bigScaleLayerBytes(total int64) int64 {
	lb := int64(64 << 20)
	for lb > 1<<20 && total/lb < 8 {
		lb /= 2
	}
	return lb
}

// BigScale writes a synthetic store checkpoint of roughly totalBytes of
// int8 weights (a deterministic LCG byte stream, sized in 64 MiB layer
// slabs plus a deliberately odd-length tail layer), then runs the full
// protection pipeline over the mapped file: protect (golden signatures),
// full streaming scan, 16 injected MSB flips across two layers, dirty-only
// rescan, group zero-out recovery, msync of the recovered sections, and a
// final clean verification scan. Every scan pass releases each layer's
// pages as it completes (core.Config.OnLayerScanned →
// store.Checkpoint.ReleaseLayer), which is what keeps the resident
// high-water mark a small fraction of the checkpoint size; at GB scale the
// experiment panics if RSS exceeds half the checkpoint, the acceptance
// bound of the streaming design. The checkpoint lives under (and is
// removed from) the system temp directory.
func BigScale(totalBytes int64) BigScaleResult {
	rssBaselineClean := resetPeakRSS()

	dir, err := os.MkdirTemp("", "radar-bigscale-*")
	if err != nil {
		panic(fmt.Sprintf("exp: bigscale temp dir: %v", err))
	}
	defer os.RemoveAll(dir)
	path := filepath.Join(dir, "bigscale.radar")

	res := BigScaleResult{GOMAXPROCS: runtime.GOMAXPROCS(0)}

	// Stream the synthetic checkpoint: full slabs plus an odd tail layer
	// (length % 8 != 0) so the SWAR kernel's scalar tail crosses a page
	// boundary, same edge the store differential tests pin.
	layerBytes := bigScaleLayerBytes(totalBytes)
	slabs := int(totalBytes / layerBytes)
	if slabs < 2 {
		slabs = 2
	}
	const tailBytes = 3*store.PageSize + 1
	t0 := time.Now()
	w, err := store.Create(path)
	if err != nil {
		panic(fmt.Sprintf("exp: bigscale create: %v", err))
	}
	lcg := uint64(0x9E3779B97F4A7C15)
	chunk := make([]byte, 1<<20)
	writeLayer := func(name string, n int64) {
		if err := w.AddLayer(name, 0.02, nil, n); err != nil {
			panic(fmt.Sprintf("exp: bigscale add layer: %v", err))
		}
		for n > 0 {
			c := chunk
			if int64(len(c)) > n {
				c = c[:n]
			}
			for i := range c {
				lcg = lcg*6364136223846793005 + 1442695040888963407
				c[i] = byte(lcg >> 33)
			}
			if _, err := w.Write(c); err != nil {
				panic(fmt.Sprintf("exp: bigscale write: %v", err))
			}
			n -= int64(len(c))
		}
	}
	for i := 0; i < slabs; i++ {
		writeLayer(fmt.Sprintf("slab%03d.weight", i), layerBytes)
	}
	writeLayer("tail.weight", tailBytes)
	if err := w.Close(); err != nil {
		panic(fmt.Sprintf("exp: bigscale close: %v", err))
	}
	writeSec := time.Since(t0).Seconds()

	c, err := store.Open(path)
	if err != nil {
		panic(fmt.Sprintf("exp: bigscale open: %v", err))
	}
	defer c.Close()
	c.AdviseSequential()
	m := c.Model()
	res.Bytes = c.WeightBytes()
	res.Layers = c.NumLayers()
	res.Mapped = c.Mapped()
	res.backing = c.Backing()
	mb := float64(res.Bytes) / (1 << 20)
	res.WriteMBs = mb / writeSec

	// Protect with the paper's large-model deployment point; every pass
	// releases each layer's pages as its shards complete.
	cfg := core.DefaultConfig(512)
	cfg.OnLayerScanned = c.ReleaseLayer
	t0 = time.Now()
	p := core.Protect(m, cfg)
	res.ProtectSeconds = time.Since(t0).Seconds()
	res.ProtectMBs = mb / res.ProtectSeconds

	t0 = time.Now()
	if flagged := p.Scan(); len(flagged) != 0 {
		panic(fmt.Sprintf("exp: bigscale clean scan flagged %d groups", len(flagged)))
	}
	res.ScanSeconds = time.Since(t0).Seconds()
	res.ScanMBs = mb / res.ScanSeconds

	// Inject 16 MSB flips across two layers (one slab, plus the odd tail),
	// each in a distinct checksum group so detection is all-or-nothing per
	// flip.
	flips := bigScaleFlips(p, 16)
	for _, a := range flips {
		m.FlipBit(a)
	}
	res.Flips = len(flips)

	t0 = time.Now()
	flagged := p.ScanDirty()
	res.DirtyScanSeconds = time.Since(t0).Seconds()
	res.Detected = p.CountDetected(flips, flagged)
	if res.Detected != res.Flips {
		panic(fmt.Sprintf("exp: bigscale detected %d of %d MSB flips", res.Detected, res.Flips))
	}

	res.Zeroed = p.Recover(flagged)
	if res.Zeroed == 0 {
		panic("exp: bigscale recovery zeroed nothing")
	}
	t0 = time.Now()
	if err := c.SyncDirty(); err != nil {
		panic(fmt.Sprintf("exp: bigscale sync: %v", err))
	}
	res.SyncSeconds = time.Since(t0).Seconds()

	t0 = time.Now()
	if flagged := p.Scan(); len(flagged) != 0 {
		panic(fmt.Sprintf("exp: bigscale post-recovery scan flagged %d groups", len(flagged)))
	}
	res.RescanSeconds = time.Since(t0).Seconds()

	res.RSSPeakBytes = readPeakRSS()
	if res.Bytes > 0 {
		res.RSSRatio = float64(res.RSSPeakBytes) / float64(res.Bytes)
	}
	// Enforce the streaming-memory bound when the measurement is sound:
	// mapped path, peak known, and a baseline that is not already above
	// the limit (earlier experiments in a shared process can pin VmHWM
	// when the kernel refuses the peak reset).
	limit := 1.3 // capped (CI-sized) runs: mapping + page-cache slack
	if res.Bytes >= 1<<30 {
		limit = 0.5 // the acceptance bound: RSS under half the checkpoint
	}
	if res.Mapped && res.RSSPeakBytes > 0 && res.Bytes >= 192<<20 {
		if !rssBaselineClean && res.RSSRatio >= limit {
			// Polluted baseline and over the limit: cannot attribute the
			// peak to this experiment; report unenforced instead of
			// failing spuriously.
			res.RSSEnforced = false
		} else {
			res.RSSEnforced = true
			if res.RSSRatio >= limit {
				panic(fmt.Sprintf("exp: bigscale peak RSS %.0f MiB is %.2fx the %.0f MiB checkpoint (limit %.2fx) — streaming release is broken",
					float64(res.RSSPeakBytes)/(1<<20), res.RSSRatio, mb, limit))
			}
		}
	}
	return res
}

// bigScaleFlips picks n MSB flip addresses, half in slab001 and half in
// the tail layer, spread so every flip lands in a distinct checksum group.
func bigScaleFlips(p *core.Protector, n int) []quant.BitAddress {
	var out []quant.BitAddress
	seen := map[core.GroupID]bool{}
	layers := []int{1, len(p.Model.Layers) - 1}
	for k := 0; k < n; k++ {
		li := layers[k%len(layers)]
		l := p.Model.Layers[li]
		i := (k/len(layers) + 1) * (len(l.Q) / (n/len(layers) + 2))
		a := quant.BitAddress{LayerIndex: li, WeightIndex: i, Bit: quant.MSB}
		for seen[p.GroupOf(a)] {
			a.WeightIndex = (a.WeightIndex + 1) % len(l.Q)
		}
		seen[p.GroupOf(a)] = true
		out = append(out, a)
	}
	return out
}

// readPeakRSS returns the process's resident high-water mark in bytes
// (VmHWM from /proc/self/status), or 0 where unavailable.
func readPeakRSS() int64 {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range bytes.Split(data, []byte("\n")) {
		if !bytes.HasPrefix(line, []byte("VmHWM:")) {
			continue
		}
		fields := strings.Fields(string(line[len("VmHWM:"):]))
		if len(fields) < 1 {
			return 0
		}
		kb, err := strconv.ParseInt(fields[0], 10, 64)
		if err != nil {
			return 0
		}
		return kb << 10
	}
	return 0
}

// resetPeakRSS asks the kernel to reset the process's peak-RSS watermark
// (echo 5 > /proc/self/clear_refs), so VmHWM afterwards reflects only this
// experiment. Returns whether the reset (probably) took effect: writing
// clear_refs needs privileges some environments withhold.
func resetPeakRSS() bool {
	f, err := os.OpenFile("/proc/self/clear_refs", os.O_WRONLY, 0)
	if err != nil {
		return false
	}
	defer f.Close()
	w := bufio.NewWriter(f)
	if _, err := w.WriteString("5\n"); err != nil {
		return false
	}
	return w.Flush() == nil
}

// Render prints the streaming pipeline timeline and the memory headline.
func (r BigScaleResult) Render() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "GB-scale streaming protection — %.0f MiB checkpoint, %d layers, %s, GOMAXPROCS=%d\n",
		float64(r.Bytes)/(1<<20), r.Layers, r.backing, r.GOMAXPROCS)
	sb.WriteString(row("stage", "time", "MB/s", "") + "\n")
	dur := func(s float64) string {
		return time.Duration(s * float64(time.Second)).Round(time.Millisecond).String()
	}
	sb.WriteString(row("write ckpt", dur(float64(r.Bytes)/(1<<20)/r.WriteMBs), fmt.Sprintf("%.0f", r.WriteMBs), "") + "\n")
	sb.WriteString(row("protect", dur(r.ProtectSeconds), fmt.Sprintf("%.0f", r.ProtectMBs), "") + "\n")
	sb.WriteString(row("full scan", dur(r.ScanSeconds), fmt.Sprintf("%.0f", r.ScanMBs), "") + "\n")
	sb.WriteString(row("dirty scan", dur(r.DirtyScanSeconds), "", fmt.Sprintf("%d/%d flips detected", r.Detected, r.Flips)) + "\n")
	sb.WriteString(row("sync recovery", dur(r.SyncSeconds), "", fmt.Sprintf("%d weights zeroed", r.Zeroed)) + "\n")
	sb.WriteString(row("verify rescan", dur(r.RescanSeconds), "", "clean") + "\n")
	enforced := "not enforced"
	if r.RSSEnforced {
		enforced = "enforced"
	}
	fmt.Fprintf(&sb, "peak RSS %.0f MiB = %.2fx checkpoint (%s)\n",
		float64(r.RSSPeakBytes)/(1<<20), r.RSSRatio, enforced)
	return sb.String()
}

// WriteJSON writes the result as indented JSON — the machine-readable
// BENCH artifact consumed by the benchmark trajectory.
func (r BigScaleResult) WriteJSON(path string) error {
	data, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}
