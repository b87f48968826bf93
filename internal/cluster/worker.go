package cluster

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"time"

	"doram/internal/obslog"
	"doram/internal/retry"
	"doram/internal/xrand"
)

// JoinConfig configures a worker's membership loop.
type JoinConfig struct {
	// Coordinator is the coordinator's base URL (e.g. http://host:8443).
	Coordinator string
	// Advertise is the base URL the coordinator should dial this worker
	// at — the worker's cluster identity.
	Advertise string
	// Transport overrides the HTTP transport (test injection); nil means
	// the default.
	Transport http.RoundTripper
	// Logger receives membership events at Info; nil discards them.
	Logger *slog.Logger
	// Seed pins the backoff-jitter PRNG for reproducible retry schedules;
	// 0 seeds from the advertise URL and the clock, spreading out a fleet.
	Seed uint64
}

// joinRequestTimeout bounds each membership request.
const joinRequestTimeout = 5 * time.Second

// joinBackoff spaces join retries while the coordinator is unreachable:
// 250ms doubling to a 10s cap, jittered by ±25%.
var joinBackoff = retry.Backoff{Base: 250 * time.Millisecond, Cap: 10 * time.Second, Lo: 0.75, Hi: 1.25}

// Join runs a worker's membership loop until ctx ends: register with the
// coordinator (retrying with jittered backoff while it is unreachable),
// then heartbeat at the agreed cadence. A heartbeat answered 404 means
// the coordinator declared this worker dead (or restarted); the loop
// re-joins, which also re-admits the worker to the ring. On ctx
// cancellation a best-effort leave is sent so in-flight jobs re-dispatch
// immediately instead of after the heartbeat timeout.
func Join(ctx context.Context, cfg JoinConfig) error {
	if cfg.Coordinator == "" || cfg.Advertise == "" {
		return fmt.Errorf("cluster: join needs both a coordinator and an advertise URL")
	}
	if cfg.Logger == nil {
		cfg.Logger = obslog.Discard()
	}
	hc := &http.Client{Transport: cfg.Transport}
	seed := cfg.Seed
	if seed == 0 {
		seed = xrand.HashString(cfg.Advertise) ^ uint64(time.Now().UnixNano())
	}
	rng := xrand.New(seed)
	body, _ := json.Marshal(JoinRequest{ID: cfg.Advertise})

	post := func(ctx context.Context, path string) (int, []byte, error) {
		rctx, cancel := context.WithTimeout(ctx, joinRequestTimeout)
		defer cancel()
		req, err := http.NewRequestWithContext(rctx, http.MethodPost, cfg.Coordinator+path, bytes.NewReader(body))
		if err != nil {
			return 0, nil, err
		}
		req.Header.Set("Content-Type", "application/json")
		resp, err := hc.Do(req)
		if err != nil {
			return 0, nil, err
		}
		defer resp.Body.Close()
		data, err := io.ReadAll(io.LimitReader(resp.Body, 1<<20))
		return resp.StatusCode, data, err
	}

	// join registers, retrying with jittered exponential backoff until the
	// coordinator answers or ctx ends. Returns the heartbeat interval.
	join := func() (time.Duration, error) {
		for attempt := 0; ; attempt++ {
			code, data, err := post(ctx, "/v1/cluster/join")
			if err == nil && code == http.StatusOK {
				var jr JoinResponse
				if json.Unmarshal(data, &jr) == nil && jr.HeartbeatMillis > 0 {
					cfg.Logger.Info("joined", slog.String("coordinator", cfg.Coordinator), slog.String("node", cfg.Advertise))
					return time.Duration(jr.HeartbeatMillis) * time.Millisecond, nil
				}
				err = fmt.Errorf("cluster: undecodable join response")
			} else if err == nil {
				err = fmt.Errorf("cluster: join rejected: %s", retry.ErrorMessage(code, data))
			}
			delay := joinBackoff.Delay(attempt, rng.Float64())
			cfg.Logger.Info("join failed", slog.String("coordinator", cfg.Coordinator),
				slog.String("error", err.Error()), slog.Duration("retry_in", delay))
			if !sleep(ctx, delay) {
				return 0, ctx.Err()
			}
		}
	}

	interval, err := join()
	if err != nil {
		return err
	}

	t := time.NewTicker(interval)
	defer t.Stop()
	for {
		select {
		case <-ctx.Done():
			// Best-effort leave on a fresh context: ctx is already dead.
			post(context.Background(), "/v1/cluster/leave")
			return ctx.Err()
		case <-t.C:
			code, _, err := post(ctx, "/v1/cluster/heartbeat")
			switch {
			case err != nil:
				// Coordinator unreachable; keep heartbeating — it may come
				// back before it (or its successor) times this worker out.
				cfg.Logger.Info("heartbeat failed", slog.String("error", err.Error()))
			case code == http.StatusNotFound:
				// Declared dead (or the coordinator restarted): re-join.
				cfg.Logger.Info("coordinator forgot this worker, re-joining", slog.String("node", cfg.Advertise))
				if _, err := join(); err != nil {
					return err
				}
			}
		}
	}
}
