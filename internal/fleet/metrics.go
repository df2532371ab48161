package fleet

import (
	"bufio"
	"encoding/json"
	"net/http"
	"sort"
	"strconv"
	"strings"

	"radar/internal/obs"
	"radar/internal/serve"
)

// rekeyBuckets covers rolling-rekey wall time: sub-second for tiny test
// fleets through a minute for many large replicas with long drain waits.
var rekeyBuckets = []float64{0.1, 0.25, 0.5, 1, 2.5, 5, 10, 30, 60}

// fleetMetrics holds the router's own instruments (the replicas' series
// are scraped, not mirrored — see handleMetrics).
type fleetMetrics struct {
	requests          *obs.CounterVec // by matched route pattern
	failovers         *obs.Counter    // transport-error failover replays
	shedFailovers     *obs.Counter    // 429-shed failover replays
	errFailovers      *obs.Counter    // 5xx-verdict failover replays
	retries           *obs.Counter    // all failover replays
	panicRoutes       *obs.Counter    // empty-ring requests routed to all replicas
	attemptTimeouts   *obs.CounterVec // by replica host: slow-replica verdicts
	softDrains        *obs.CounterVec // by replica host: shed-rate soft drains
	shedReadmits      *obs.CounterVec // by replica host: soft-drain readmissions
	reconcileRepairs  *obs.CounterVec // by replica host: model-set drift repairs
	reconcileFailures *obs.CounterVec // by replica host: failed drift repairs
	probeFailures     *obs.CounterVec // by replica host
	ejections         *obs.CounterVec // by replica host
	scrapeErrors      *obs.CounterVec // by replica host
	rekeySeconds      *obs.Histogram
}

// initMetrics registers the router's families on reg and binds the
// per-replica function gauges. Called once from New, after the replica map
// is built.
func (f *Fleet) initMetrics(reg *obs.Registry) {
	f.met = &fleetMetrics{
		requests:          reg.Counter("radar_fleet_requests_total", "Requests handled by the fleet router.", "route"),
		failovers:         reg.Counter("radar_fleet_failovers_total", "Routed requests replayed on another owner after a transport failure.").With(),
		shedFailovers:     reg.Counter("radar_fleet_shed_failover_total", "Routed requests replayed on another owner after a 429 queue-full shed.").With(),
		errFailovers:      reg.Counter("radar_fleet_err_failovers_total", "Routed requests replayed on another owner after a 5xx verdict.").With(),
		retries:           reg.Counter("radar_fleet_retries_total", "All failover replays (transport, shed, 5xx).").With(),
		panicRoutes:       reg.Counter("radar_fleet_panic_routes_total", "Requests routed to all configured replicas because ejections emptied the ring.").With(),
		attemptTimeouts:   reg.Counter("radar_fleet_attempt_timeouts_total", "Proxied attempts that exceeded AttemptTimeout while the client was still live — slow-replica verdicts.", "replica"),
		softDrains:        reg.Counter("radar_fleet_soft_drains_total", "Replicas weighted out of new sync traffic for a persistently high shed/error rate.", "replica"),
		shedReadmits:      reg.Counter("radar_fleet_shed_readmits_total", "Soft-drained replicas readmitted after their shed window cleared.", "replica"),
		reconcileRepairs:  reg.Counter("radar_fleet_reconcile_repairs_total", "Hosted-model drift repairs applied to readmitted replicas.", "replica"),
		reconcileFailures: reg.Counter("radar_fleet_reconcile_failures_total", "Hosted-model drift repairs that failed (retried at the next readmission).", "replica"),
		probeFailures:     reg.Counter("radar_fleet_probe_failures_total", "Failed health probes.", "replica"),
		ejections:         reg.Counter("radar_fleet_replica_ejections_total", "Healthy-to-ejected transitions.", "replica"),
		scrapeErrors:      reg.Counter("radar_fleet_scrape_errors_total", "Failed replica scrapes during aggregated /v1/metrics.", "replica"),
		rekeySeconds:      reg.Histogram("radar_fleet_rekey_seconds", "Wall time of whole rolling rekeys.", rekeyBuckets).With(),
	}
	up := reg.Gauge("radar_fleet_replica_up", "1 while the replica is in the routing ring.", "replica")
	shedRate := reg.Gauge("radar_fleet_replica_shed_rate", "Bad-outcome fraction (429s, attempt timeouts, 5xx) over the replica's sliding shed window.", "replica")
	for _, base := range f.order {
		r := f.replicas[base]
		url := r.url
		up.Func(func() float64 {
			if f.ring.Has(url) {
				return 1
			}
			return 0
		}, r.host)
		win := r.window
		shedRate.Func(func() float64 {
			rate, _ := win.rate()
			return rate
		}, r.host)
	}
}

// scrapedFamily is one metric family re-assembled from replica scrapes:
// the metadata lines from the first replica that exposed it plus every
// replica's sample lines, each tagged with that replica's host.
type scrapedFamily struct {
	help    string
	typ     string
	samples []string
}

// injectReplicaLabel rewrites one sample line to carry replica="host" as
// its first label: `name{a="b"} v` → `name{replica="host",a="b"} v` and
// `name v` → `name{replica="host"} v`.
func injectReplicaLabel(line, host string) string {
	tag := `replica="` + host + `"`
	if i := strings.IndexByte(line, '{'); i >= 0 {
		return line[:i+1] + tag + "," + line[i+1:]
	}
	i := strings.IndexByte(line, ' ')
	if i < 0 {
		return line
	}
	return line[:i] + "{" + tag + "}" + line[i:]
}

// scrapeReplica pulls one replica's /v1/metrics through send — so a
// replica that never answers costs one AttemptTimeout, not the whole
// scrape — and folds its families into fams/order under the replica's
// host label. Sample lines attach to the family named by the preceding
// # TYPE/# HELP comments, so histogram _bucket/_sum/_count lines stay
// grouped with their family.
func (f *Fleet) scrapeReplica(r *http.Request, base, host string, fams map[string]*scrapedFamily, order *[]string) error {
	resp, err := f.send(r, base, "/v1/metrics", nil)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return errStatus(resp.StatusCode)
	}
	var cur *scrapedFamily
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 0, 64*1024), 1024*1024)
	get := func(name string) *scrapedFamily {
		fam, ok := fams[name]
		if !ok {
			fam = &scrapedFamily{}
			fams[name] = fam
			*order = append(*order, name)
		}
		return fam
	}
	for sc.Scan() {
		line := sc.Text()
		switch {
		case strings.HasPrefix(line, "# HELP "):
			rest := line[len("# HELP "):]
			name, help, _ := strings.Cut(rest, " ")
			fam := get(name)
			if fam.help == "" {
				fam.help = help
			}
			cur = fam
		case strings.HasPrefix(line, "# TYPE "):
			rest := line[len("# TYPE "):]
			name, typ, _ := strings.Cut(rest, " ")
			fam := get(name)
			if fam.typ == "" {
				fam.typ = typ
			}
			cur = fam
		case line == "" || strings.HasPrefix(line, "#"):
			// blank or other comment: ignore
		default:
			if cur != nil {
				cur.samples = append(cur.samples, injectReplicaLabel(line, host))
			}
		}
	}
	return sc.Err()
}

type errStatus int

func (e errStatus) Error() string { return "status " + strconv.Itoa(int(e)) }

// handleMetrics is the router's GET /v1/metrics: its own routing series
// first, then every in-ring replica's exposition re-emitted with a
// replica="host:port" label — one scrape sees the whole fleet. A replica
// that fails mid-scrape is skipped (and counted in
// radar_fleet_scrape_errors_total); its series simply go stale for this
// sample.
func (f *Fleet) handleMetrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", obs.ExpositionContentType)
	bw := bufio.NewWriter(w)
	f.obs.WriteTo(bw)
	fams := make(map[string]*scrapedFamily)
	var order []string
	for _, base := range f.ring.Members() {
		rep, ok := f.replicas[base]
		if !ok {
			continue
		}
		if err := f.scrapeReplica(r, base, rep.host, fams, &order); err != nil {
			f.met.scrapeErrors.With(rep.host).Inc()
		}
	}
	for _, name := range order {
		fam := fams[name]
		if len(fam.samples) == 0 {
			continue
		}
		if fam.help != "" {
			bw.WriteString("# HELP " + name + " " + fam.help + "\n")
		}
		if fam.typ != "" {
			bw.WriteString("# TYPE " + name + " " + fam.typ + "\n")
		}
		for _, s := range fam.samples {
			bw.WriteString(s + "\n")
		}
	}
	bw.Flush()
}

// handleTraces is the router's GET /v1/debug/traces: it fans out to every
// in-ring replica, tags each returned trace with its replica host, merges
// newest-first and truncates to n — per-stage timings for routed requests,
// fleet-wide.
func (f *Fleet) handleTraces(w http.ResponseWriter, r *http.Request) {
	n := 32
	if raw := r.URL.Query().Get("n"); raw != "" {
		v, err := strconv.Atoi(raw)
		if err != nil || v < 1 {
			http.Error(w, "bad n: want a positive integer", http.StatusBadRequest)
			return
		}
		n = v
	}
	var merged []obs.Trace
	for _, base := range f.ring.Members() {
		rep, ok := f.replicas[base]
		if !ok {
			continue
		}
		resp, err := f.send(r, base, "/v1/debug/traces?n="+strconv.Itoa(n), nil)
		if err != nil {
			continue
		}
		var one serve.TracesResponse
		err = json.NewDecoder(resp.Body).Decode(&one)
		resp.Body.Close()
		if err != nil || resp.StatusCode != http.StatusOK {
			continue
		}
		for _, t := range one.Traces {
			t.Replica = rep.host
			merged = append(merged, t)
		}
	}
	sort.Slice(merged, func(i, j int) bool { return merged[i].Start.After(merged[j].Start) })
	if len(merged) > n {
		merged = merged[:n]
	}
	writeJSON(w, http.StatusOK, serve.NewTracesResponse(merged))
}
