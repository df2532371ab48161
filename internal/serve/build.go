package serve

import (
	"fmt"
	"os"
	"path/filepath"
	"time"

	"radar/internal/core"
	"radar/internal/model"
	"radar/internal/qinfer"
	"radar/internal/store"
)

// Built is a zoo model brought up by Build: what WithModel and AddModel
// take, the bundle (its Test set holds inputs to ask the model) and, for a
// store-backed build, the checkpoint, which the caller syncs and closes
// once the model is no longer served.
type Built struct {
	Engine  *qinfer.Engine
	Prot    *core.Protector
	Options []ModelOption // the input shape and the stage timings
	Bundle  *model.Bundle
	Ckpt    *store.Checkpoint // nil without a store path
}

// stage is one timed step of Build, exported by AddModel as
// radar_model_bringup_seconds.
type stage struct {
	name string
	d    time.Duration
}

// Build brings up a zoo model the way a replica hosts it, timing each
// stage: load the bundle (training it on first use); with a storePath,
// map its weights to that store checkpoint (converting them on first
// use); compile the int8 engine on 64 attack images; protect its weight
// image under pcfg.
func Build(spec model.Spec, pcfg core.Config, storePath string) (Built, error) {
	var stages []stage
	start := time.Now()
	lap := func(name string) {
		stages = append(stages, stage{name, time.Since(start)})
		start = time.Now()
	}
	m := Built{Bundle: model.Load(spec)}
	lap("load")
	if storePath != "" {
		err := os.MkdirAll(filepath.Dir(storePath), 0o755)
		if err == nil {
			m.Ckpt, err = model.MapCheckpoint(m.Bundle, storePath)
		}
		if err != nil {
			return Built{}, fmt.Errorf("map store checkpoint %s: %w", storePath, err)
		}
		lap("map")
	}
	calib, _ := m.Bundle.Attack.Batch(0, 64)
	eng, err := qinfer.Compile(m.Bundle.Net, m.Bundle.QModel, calib)
	if err != nil {
		if m.Ckpt != nil {
			m.Ckpt.Close()
		}
		return Built{}, fmt.Errorf("compile int8 engine for %q: %w", spec.Name, err)
	}
	lap("compile")
	m.Engine, m.Prot = eng, core.Protect(m.Bundle.QModel, pcfg)
	lap("protect")
	m.Options = []ModelOption{
		WithInputShape(spec.Data.Channels, spec.Data.Size, spec.Data.Size),
		func(c *config) { c.bringUp = stages }, // unexported: only Build sets the timings
	}
	return m, nil
}
