package cluster

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"sort"

	"doram/internal/retry"
	"doram/internal/simsvc"
)

// Handler returns the coordinator's HTTP surface: the job service's API
// (every /v1/jobs*, /v1/sweeps, /metrics and /events route, so doramctl
// and experiments -endpoint work unchanged against a coordinator), with
// cluster versions of /healthz and /varz and the worker membership
// protocol under /v1/cluster:
//
//	GET  /healthz                liveness + alive-node count
//	GET  /varz                   cluster-wide merged metrics
//	POST /v1/cluster/join        worker registration        → JoinResponse
//	POST /v1/cluster/heartbeat   worker liveness refresh (404 → re-join)
//	POST /v1/cluster/leave       graceful worker departure
//	GET  /v1/cluster/nodes       membership snapshot        → []NodeStatus
func (c *Coordinator) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.Handle("/", c.svc.Handler())
	mux.HandleFunc("GET /healthz", c.handleHealthz)
	mux.HandleFunc("GET /varz", c.handleVarz)
	mux.HandleFunc("POST /v1/cluster/join", c.membership(func(id string) (any, error) {
		return JoinResponse{HeartbeatMillis: c.join(id, c.now()).Milliseconds()}, nil
	}))
	mux.HandleFunc("POST /v1/cluster/heartbeat", c.membership(func(id string) (any, error) {
		if !c.heartbeat(id, c.now()) {
			return nil, &simsvc.Error{Kind: simsvc.ErrNotFound, Msg: fmt.Sprintf("cluster: unknown worker %q, re-join", id)}
		}
		return map[string]string{"status": "ok"}, nil
	}))
	mux.HandleFunc("POST /v1/cluster/leave", c.membership(func(id string) (any, error) {
		c.leave(id)
		return map[string]string{"status": "ok"}, nil
	}))
	mux.HandleFunc("GET /v1/cluster/nodes", func(w http.ResponseWriter, r *http.Request) {
		simsvc.WriteJSON(w, http.StatusOK, c.Nodes())
	})
	return mux
}

func (c *Coordinator) handleHealthz(w http.ResponseWriter, r *http.Request) {
	c.mu.Lock()
	alive := c.ring.size()
	c.mu.Unlock()
	status, code := "ok", http.StatusOK
	if c.svc.Draining() {
		status, code = "draining", http.StatusServiceUnavailable
	}
	simsvc.WriteJSON(w, code, map[string]any{"status": status, "role": "coordinator", "nodes": alive})
}

// varzDoc is the cluster-wide metrics document: the coordinator's own
// counters (its job service's and the fleet's), each reachable worker's
// counters keyed by node id, the unreachable workers (with what went
// wrong per node), and an element-wise sum of the worker counters.
type varzDoc struct {
	Cluster     map[string]uint64            `json:"cluster"`
	Workers     map[string]map[string]uint64 `json:"workers"`
	Unreachable []string                     `json:"unreachable,omitempty"`
	// Errors says why each unreachable node's fetch failed, keyed by node
	// id: transport error, HTTP status, or decode failure.
	Errors map[string]string `json:"errors,omitempty"`
	Merged map[string]uint64 `json:"merged"`
}

func (c *Coordinator) handleVarz(w http.ResponseWriter, r *http.Request) {
	doc := varzDoc{
		Cluster: c.Registry().CounterValues(),
		Workers: make(map[string]map[string]uint64),
		Merged:  make(map[string]uint64),
	}
	c.mu.Lock()
	var alive []*node
	for _, n := range c.nodes {
		if n.alive {
			alive = append(alive, n)
		}
	}
	c.mu.Unlock()
	sort.Slice(alive, func(i, j int) bool { return alive[i].id < alive[j].id })
	fail := func(id, why string) {
		doc.Unreachable = append(doc.Unreachable, id)
		if doc.Errors == nil {
			doc.Errors = make(map[string]string)
		}
		doc.Errors[id] = why
	}
	for _, n := range alive {
		code, data, _, err := c.doNode(n, http.MethodGet, "/varz", nil)
		var dump struct {
			Counters map[string]uint64 `json:"counters"`
		}
		switch {
		case err != nil:
			fail(n.id, err.Error())
		case code != http.StatusOK:
			fail(n.id, retry.ErrorMessage(code, data))
		default:
			if err := json.Unmarshal(data, &dump); err != nil {
				fail(n.id, fmt.Sprintf("decoding varz: %v", err))
				continue
			}
			doc.Workers[n.id] = dump.Counters
			for k, v := range dump.Counters {
				doc.Merged[k] += v
			}
		}
	}
	simsvc.WriteJSON(w, http.StatusOK, doc)
}

// ---- membership protocol ----

// JoinRequest registers a worker under its advertised base URL — the
// address the coordinator dials, and the worker's identity.
type JoinRequest struct {
	ID string `json:"id"`
}

// JoinResponse tells the worker how often to heartbeat.
type JoinResponse struct {
	HeartbeatMillis int64 `json:"heartbeat_ms"`
}

// membership serves one membership operation: the request names the
// worker, op answers for it.
func (c *Coordinator) membership(op func(id string) (any, error)) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		var req JoinRequest
		err := json.NewDecoder(io.LimitReader(r.Body, 1<<20)).Decode(&req)
		if err == nil && req.ID == "" {
			err = errors.New("no worker id")
		}
		if err != nil {
			simsvc.WriteError(w, &simsvc.Error{Kind: simsvc.ErrInvalid, Msg: "cluster: membership request: " + err.Error()})
			return
		}
		resp, err := op(req.ID)
		if err != nil {
			simsvc.WriteError(w, err)
			return
		}
		simsvc.WriteJSON(w, http.StatusOK, resp)
	}
}
