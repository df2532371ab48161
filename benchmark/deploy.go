package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"runtime"
	"slices"
	"time"

	"radar/internal/core"
	"radar/internal/fleet"
	"radar/internal/model"
	"radar/internal/qinfer"
	"radar/internal/quant"
	"radar/internal/serve"
	"radar/internal/tensor"
)

// poolSize is how many distinct inputs the load generator draws from.
const poolSize = 64

// servedGroup is the checksum group size of every served model (the paper's
// ResNet-20 setting, and what radar-serve's zoo models use).
const servedGroup = 8

func zooSpec(name string) model.Spec {
	if name == "resnet20s" {
		return model.ResNet20sSpec()
	}
	return model.TinySpec()
}

// servedConfig is the protection every served model runs under: the paper's
// defaults plus ECC-corrected recovery, so that a repaired image returns
// bit-identical and the end-of-run weight gate can hold.
func servedConfig() core.Config {
	cfg := core.DefaultConfig(servedGroup)
	cfg.Correct = true
	return cfg
}

// hosted is one (replica, model) pair: the live weight image, its
// protector, and the pre-attack snapshot the final gate compares against.
type hosted struct {
	replica int
	name    string
	qm      *quant.Model
	prot    *core.Protector
	snap    [][]int8
}

type replica struct {
	svc *serve.Service
	srv *http.Server
	url string
}

// inputPool is the seeded request material: pool inputs, their clean
// reference answers from an engine the adversary never touches, and the
// pre-encoded wire bodies.
type inputPool struct {
	shape  []int
	inputs []*tensor.Tensor
	class  []int
	logits [][]float32
	// single[i] carries input i; bulk[i] carries inputs i..i+7 (mod pool).
	single, bulk [][]byte
	ref          *qinfer.Engine
	compileMs    float64
}

// deployment is the whole serving stack of one workload: replicas on
// loopback listeners, and the router in front of them. Every workload
// brings all of it up, so the traced run can reach every depth; the
// workload's front decides which depth the measured phases hit.
type deployment struct {
	w         *workload
	replicas  []*replica
	hosted    []*hosted
	models    []string       // model names, models[i] owned by replica i%R
	owner     map[string]int // model name -> owning replica
	router    *fleet.Fleet
	routerSrv *http.Server
	routerURL string
	client    *http.Client
}

func newClient() *http.Client {
	n := runtime.GOMAXPROCS(0)
	return &http.Client{
		Timeout: 20 * time.Second,
		Transport: &http.Transport{
			MaxConnsPerHost:     n,
			MaxIdleConnsPerHost: n,
			DisableCompression:  true,
		},
	}
}

// buildPool compiles the clean reference engine and answers every pool
// input with it at batch 1. The seed picks which test images form the pool.
func buildPool(w *workload, seed int64) (*inputPool, error) {
	b := model.Load(zooSpec(w.Model))
	calib, _ := b.Attack.Batch(0, 64)
	t0 := time.Now()
	eng, err := qinfer.Compile(b.Net, b.QModel, calib)
	if err != nil {
		return nil, fmt.Errorf("compile reference engine: %w", err)
	}
	p := &inputPool{ref: eng, compileMs: ms(time.Since(t0))}
	first := int(uint64(seed) % uint64(b.Test.Len()-poolSize))
	x, _ := b.Test.Batch(first, first+poolSize)
	p.shape = x.Shape[1:]
	vol := tensor.Volume(p.shape)
	for i := 0; i < poolSize; i++ {
		in := tensor.New(append([]int{1}, p.shape...)...)
		copy(in.Data, x.Data[i*vol:(i+1)*vol])
		out := eng.Forward(in)
		p.inputs = append(p.inputs, in)
		p.class = append(p.class, out.Argmax(0, out.Shape[1]))
		p.logits = append(p.logits, append([]float32(nil), out.Data...))
	}
	for i := 0; i < poolSize; i++ {
		one, err := json.Marshal(serve.InferRequest{Input: p.inputs[i].Data})
		if err != nil {
			return nil, err
		}
		p.single = append(p.single, one)
		many := make([][]float32, bulkInputs)
		for j := range many {
			many[j] = p.inputs[(i+j)%poolSize].Data
		}
		eight, err := json.Marshal(serve.InferRequest{Inputs: many})
		if err != nil {
			return nil, err
		}
		p.bulk = append(p.bulk, eight)
	}
	return p, nil
}

const bulkInputs = 8

// deploy brings the stack up the way radar-serve and radar-fleet do:
// serve.DefaultConfig() unchanged (MaxBatch 8, 2 ms window, verified fetch
// on, 100 ms scrub, full sweep every 8th cycle), fleet defaults. It returns
// once the workload's front has answered a first request correctly and the
// router reports every replica in its ring.
func deploy(w *workload, pool *inputPool) (*deployment, error) {
	d := &deployment{w: w, owner: map[string]int{}, client: newClient()}
	listeners := make([]net.Listener, w.Replicas)
	urls := make([]string, w.Replicas)
	for i := range listeners {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			d.close()
			return nil, err
		}
		listeners[i] = ln
		urls[i] = "http://" + ln.Addr().String()
	}
	// Replica URLs carry ephemeral ports, so ring ownership would change
	// from run to run. Pick model names such that replica i owns models[i]:
	// every replica then takes exactly its share of the routed load.
	ring := fleet.NewRing(64)
	for _, u := range urls {
		ring.Add(u)
	}
	for i := 0; len(d.models) < w.Models; i++ {
		name := fmt.Sprintf("m%d", i)
		want := len(d.models) % w.Replicas
		if ring.Lookup(name) == urls[want] {
			d.models = append(d.models, name)
			d.owner[name] = want
		}
	}
	for r := 0; r < w.Replicas; r++ {
		var opts []serve.ServiceOption
		for _, name := range d.models {
			b := model.Load(zooSpec(w.Model))
			calib, _ := b.Attack.Batch(0, 64)
			eng, err := qinfer.Compile(b.Net, b.QModel, calib)
			if err != nil {
				d.close()
				return nil, fmt.Errorf("compile %s: %w", name, err)
			}
			prot := core.Protect(b.QModel, servedConfig())
			d.hosted = append(d.hosted, &hosted{replica: r, name: name, qm: b.QModel, prot: prot, snap: b.QModel.Snapshot()})
			opts = append(opts, serve.WithModel(name, eng, prot,
				serve.WithInputShape(pool.shape[0], pool.shape[1], pool.shape[2])))
		}
		svc, err := serve.Open(opts...)
		if err != nil {
			d.close()
			return nil, fmt.Errorf("open service: %w", err)
		}
		rep := &replica{svc: svc, srv: &http.Server{Handler: svc.Handler()}, url: urls[r]}
		go rep.srv.Serve(listeners[r])
		d.replicas = append(d.replicas, rep)
	}
	rt, err := fleet.New(fleet.Config{Replicas: urls})
	if err != nil {
		d.close()
		return nil, fmt.Errorf("router: %w", err)
	}
	rt.Start()
	d.router = rt
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		d.close()
		return nil, err
	}
	d.routerURL = "http://" + ln.Addr().String()
	d.routerSrv = &http.Server{Handler: rt.Handler()}
	go d.routerSrv.Serve(ln)

	if err := d.ready(pool); err != nil {
		d.close()
		return nil, err
	}
	return d, nil
}

// ready is the end of set-up as a user sees it: each model answers through
// the workload's front with the clean reference, and GET /v1/fleet shows
// every replica in the ring.
func (d *deployment) ready(pool *inputPool) error {
	for _, name := range d.models {
		ans, err := d.send(context.Background(), d.w.Front, name, pool, 0, 1, "")
		if err != nil {
			return fmt.Errorf("first request to %s: %w", name, err)
		}
		if !slices.Equal(ans[0].Logits, pool.logits[0]) {
			return fmt.Errorf("first answer of %s differs from the reference engine", name)
		}
	}
	resp, err := d.client.Get(d.routerURL + "/v1/fleet")
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	var st fleet.FleetStatus
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		return fmt.Errorf("decode /v1/fleet: %w", err)
	}
	if st.InRing != len(d.replicas) {
		return fmt.Errorf("router has %d of %d replicas in its ring", st.InRing, len(d.replicas))
	}
	return nil
}

func (d *deployment) close() {
	if d.routerSrv != nil {
		d.routerSrv.Close()
	}
	if d.router != nil {
		d.router.Stop()
	}
	for _, r := range d.replicas {
		r.srv.Close()
		r.svc.Close()
	}
	d.client.CloseIdleConnections()
}

// send issues one request of n inputs, starting at pool input first, to the
// named model at the given depth, and returns the answers. id, when set,
// becomes the X-Request-Id (HTTP) or Request.RequestID (direct), which is
// what keys the replica's stage trace.
func (d *deployment) send(ctx context.Context, front frontKind, name string, pool *inputPool, first, n int, id string) ([]serve.InferResult, error) {
	switch front {
	case frontEngine:
		return pool.forward(first, n), nil
	case frontDirect:
		return d.sendDirect(ctx, name, pool, first, id)
	}
	base := d.routerURL
	if front == frontHTTP {
		base = d.replicas[d.owner[name]].url
	}
	body := pool.single[first]
	if n > 1 {
		body = pool.bulk[first]
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, base+"/v1/models/"+name+"/infer", bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	req.Header.Set("Content-Type", "application/json")
	if id != "" {
		req.Header.Set(serve.RequestIDHeader, id)
	}
	resp, err := d.client.Do(req)
	if err != nil {
		return nil, err
	}
	raw, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("status %d: %.80s", resp.StatusCode, raw)
	}
	var out serve.InferResponse
	if err := json.Unmarshal(raw, &out); err != nil {
		return nil, err
	}
	if len(out.Results) != n {
		return nil, fmt.Errorf("%d results for %d inputs", len(out.Results), n)
	}
	return out.Results, nil
}

// forward answers n pool inputs with the clean reference engine alone, as
// one batch: the stack's innermost layer, with no service around it.
func (p *inputPool) forward(first, n int) []serve.InferResult {
	vol := tensor.Volume(p.shape)
	x := tensor.New(append([]int{n}, p.shape...)...)
	for j := 0; j < n; j++ {
		copy(x.Data[j*vol:], p.inputs[(first+j)%poolSize].Data)
	}
	out := p.ref.Forward(x)
	k := out.Shape[1]
	res := make([]serve.InferResult, n)
	for j := range res {
		res[j] = serve.InferResult{Class: out.Argmax(j*k, k), Logits: out.Data[j*k : (j+1)*k]}
	}
	return res
}

// sendDirect is the in-process front, the traced ladder's depth 1. It only
// ever carries one input; the 8-input phases enter over HTTP.
func (d *deployment) sendDirect(ctx context.Context, name string, pool *inputPool, first int, id string) ([]serve.InferResult, error) {
	svc := d.replicas[d.owner[name]].svc
	res, err := svc.Infer(ctx, serve.Request{Model: name, Input: pool.inputs[first], RequestID: id})
	return []serve.InferResult{{Class: res.Class, Logits: res.Logits}}, err
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
