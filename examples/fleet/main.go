// Fleet routing in one process: three protected inference services (each
// hosting the same two tiny models) come up on loopback listeners behind
// a radar-fleet consistent-hash router. Traffic routed through the fleet
// lands on each model's ring owner; killing one replica mid-run ejects it
// and remaps its models to the survivors without dropping a request; a
// rolling rekey then rotates every surviving replica's protection
// secrets one at a time while traffic keeps flowing.
package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"time"

	"radar/internal/core"
	"radar/internal/fleet"
	"radar/internal/model"
	"radar/internal/serve"
)

func tinyModel() serve.Built {
	m, err := serve.Build(model.TinySpec(), core.DefaultConfig(8), "")
	if err != nil {
		panic(err)
	}
	return m
}

func main() {
	// Three replicas, each hosting the same two protected models.
	const nReplicas = 3
	names := []string{"alpha", "beta"}
	var (
		servers  []*httptest.Server
		services []*serve.Service
		urls     []string
		tiny     *model.Bundle
	)
	for r := 0; r < nReplicas; r++ {
		opts := []serve.ServiceOption{}
		for _, name := range names {
			m := tinyModel()
			tiny = m.Bundle
			opts = append(opts, serve.WithModel(name, m.Engine, m.Prot,
				append(m.Options, serve.WithScrub(5*time.Millisecond))...))
		}
		svc, err := serve.Open(opts...)
		if err != nil {
			panic(err)
		}
		services = append(services, svc)
		ts := httptest.NewServer(svc.Handler())
		servers = append(servers, ts)
		urls = append(urls, ts.URL)
	}
	defer func() {
		for i := range servers {
			servers[i].Close()
			services[i].Close()
		}
	}()

	fl, err := fleet.New(fleet.Config{Replicas: urls, HealthInterval: 50 * time.Millisecond})
	if err != nil {
		panic(err)
	}
	fl.Start()
	defer fl.Stop()
	front := httptest.NewServer(fl.Handler())
	defer front.Close()

	for _, name := range names {
		fmt.Printf("model %-5s → ring owner %s\n", name, fl.Ring().Lookup(name))
	}

	// One routed inference per model.
	x, _ := tiny.Test.Batch(0, 1)
	body, _ := json.Marshal(serve.InferRequest{Input: x.Data, Shape: x.Shape[1:]})
	infer := func(name string) error {
		resp, err := http.Post(front.URL+"/v1/models/"+name+"/infer",
			"application/json", bytes.NewReader(body))
		if err != nil {
			return err
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			return fmt.Errorf("status %d", resp.StatusCode)
		}
		var ir serve.InferResponse
		if err := json.NewDecoder(resp.Body).Decode(&ir); err != nil {
			return err
		}
		fmt.Printf("routed infer %-5s → class %d\n", name, ir.Results[0].Class)
		return nil
	}
	for _, name := range names {
		if err := infer(name); err != nil {
			panic(err)
		}
	}

	// Kill the last replica mid-run: the router ejects it on first contact
	// and the survivors pick up its models.
	fmt.Println("\nkilling one replica…")
	servers[nReplicas-1].CloseClientConnections()
	servers[nReplicas-1].Close()
	ok := 0
	for i := 0; i < 10; i++ {
		if infer(names[i%len(names)]) == nil {
			ok++
		}
	}
	// Give the prober a couple of intervals to confirm the ejection (a
	// replica that was never routed to is only discovered by probing).
	time.Sleep(300 * time.Millisecond)
	fmt.Printf("after the kill: %d/10 routed requests succeeded, ring has %d/%d replicas\n",
		ok, len(fl.Ring().Members()), nReplicas)

	// Rolling rekey across the survivors, traffic-safe by construction:
	// each replica is drained off the ring before its exclusive window.
	resp, err := http.Post(front.URL+"/v1/admin/rekey", "application/json",
		bytes.NewReader([]byte("{}")))
	if err != nil {
		panic(err)
	}
	var ar fleet.AdminResponse
	json.NewDecoder(resp.Body).Decode(&ar)
	resp.Body.Close()
	rekeyed := 0
	for _, rep := range ar.Replicas {
		if rep.Err == "" && rep.Status == http.StatusOK {
			rekeyed++
		}
	}
	fmt.Printf("rolling rekey: %d/%d live replicas rekeyed\n", rekeyed, len(fl.Ring().Members()))
	if err := infer(names[0]); err != nil {
		panic(err)
	}
	fmt.Println("fleet example done")
}
