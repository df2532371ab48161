package serve

import (
	"bytes"
	"math"
	"os"
	"path/filepath"
	"regexp"
	"strconv"
	"testing"
	"time"

	"radar/internal/core"
	"radar/internal/model"
)

var bringUpRE = regexp.MustCompile(`(?m)^radar_model_bringup_seconds\{model="([^"]+)",stage="([^"]+)"\} (\S+)$`)

// bringUpSeries returns the exported bring-up stage timings of model name.
func bringUpSeries(t testing.TB, svc *Service, name string) map[string]float64 {
	t.Helper()
	out := map[string]float64{}
	for _, m := range bringUpRE.FindAllStringSubmatch(exposition(svc), -1) {
		if m[1] != name {
			continue
		}
		v, err := strconv.ParseFloat(m[3], 64)
		if err != nil {
			t.Fatalf("stage %s: %v", m[2], err)
		}
		out[m[2]] = v
	}
	return out
}

// TestBuildStagesMatchStopwatch builds tiny and resnet20s under a
// caller-side stopwatch: each exported stage is positive, an in-RAM build
// has no map stage, and the stages sum to within 10 % of the stopwatch.
// Removing a model drops its series; adding it again binds them anew.
func TestBuildStagesMatchStopwatch(t *testing.T) {
	var opts []ServiceOption
	elapsed := map[string]time.Duration{}
	for _, spec := range []model.Spec{model.TinySpec(), model.ResNet20sSpec()} {
		start := time.Now()
		m, err := Build(spec, core.DefaultConfig(8), "")
		elapsed[spec.Name] = time.Since(start)
		if err != nil {
			t.Fatalf("Build %s: %v", spec.Name, err)
		}
		opts = append(opts, WithModel(spec.Name, m.Engine, m.Prot, append(m.Options, WithScrub(0))...))
	}
	svc, err := Open(opts...)
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Close()
	for name, watch := range elapsed {
		got := bringUpSeries(t, svc, name)
		var sum float64
		for _, st := range []string{"load", "compile", "protect"} {
			if got[st] <= 0 {
				t.Errorf("%s: stage %s reads %v, want > 0", name, st, got[st])
			}
			sum += got[st]
		}
		if len(got) != 3 {
			t.Errorf("%s: exported stages %v, want load, compile and protect", name, got)
		}
		if w := watch.Seconds(); math.Abs(sum-w) > 0.1*w {
			t.Errorf("%s: stages sum to %.4f s, the caller's stopwatch read %.4f s", name, sum, w)
		}
	}

	if err := svc.RemoveModel("tiny"); err != nil {
		t.Fatal(err)
	}
	if got := bringUpSeries(t, svc, "tiny"); len(got) != 0 {
		t.Fatalf("removed model still exports %v", got)
	}
	m := buildTiny(t, core.DefaultConfig(8))
	if err := svc.AddModel("tiny", m.Engine, m.Prot, m.Options...); err != nil {
		t.Fatal(err)
	}
	if got := bringUpSeries(t, svc, "tiny"); len(got) != 3 {
		t.Fatalf("re-added model exports %v, want three stages", got)
	}
}

// TestBuildMapsStore covers the store-backed bring-up: Build creates the
// checkpoint file, protects the mapped image and exports a map stage; a
// second Build reopens the file without rewriting it; and both engines
// answer like an in-RAM Build, bit for bit.
func TestBuildMapsStore(t *testing.T) {
	path := filepath.Join(t.TempDir(), "store", "tiny.radar")
	pcfg := core.DefaultConfig(4)
	first, err := Build(model.TinySpec(), pcfg, path)
	if err != nil {
		t.Fatal(err)
	}
	if first.Ckpt == nil {
		t.Fatal("Build with a store path returned no checkpoint")
	}
	t.Cleanup(func() { first.Ckpt.Close() })
	if first.Prot.Model != first.Ckpt.Model() {
		t.Fatal("the protector does not guard the mapped model")
	}
	written, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("checkpoint file: %v", err)
	}

	second, err := Build(model.TinySpec(), pcfg, path)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { second.Ckpt.Close() })
	if reread, err := os.ReadFile(path); err != nil || !bytes.Equal(reread, written) {
		t.Fatalf("a second Build rewrote the checkpoint (err %v)", err)
	}

	x, _ := first.Bundle.Test.Batch(0, 8)
	want := buildTiny(t, pcfg).Engine.Forward(x).Data
	for i, m := range []Built{first, second} {
		for j, v := range m.Engine.Forward(x).Data {
			if math.Float32bits(v) != math.Float32bits(want[j]) {
				t.Fatalf("store-backed build %d, logit %d: %v, in-RAM build %v", i, j, v, want[j])
			}
		}
	}

	svc, err := Open(WithModel("s", first.Engine, first.Prot, append(first.Options, WithScrub(0))...))
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Close()
	if got := bringUpSeries(t, svc, "s"); got["map"] <= 0 || len(got) != 4 {
		t.Fatalf("store-backed model exports %v, want load, map, compile and protect", got)
	}
}
