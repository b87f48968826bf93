package doram

import (
	"encoding/json"
	"fmt"
	"net/http"
	"strings"
	"time"

	"doram/internal/core"
	"doram/internal/retry"
)

// Remote sweeps: with ExperimentOptions.Endpoint set, each sweep run is
// lifted to a Params job spec, run on the doramd service through the
// shared job client (internal/retry), and rebuilt from the SimResult's
// exact integer aggregates (SimResult.Raw) — so a remote sweep produces
// bit-identical tables to a local one; remote_test.go enforces it.
// Every sweep knob is a spec field; the one configuration a spec cannot
// express, an event ring, fails the run rather than simulating in-process.

// remoteExec returns the sweep runner's executor for one doramd endpoint:
// every cfg runs on the endpoint.
func remoteExec(endpoint string) func(core.Config) (*core.Results, error) {
	c := retry.NewClient(strings.TrimRight(endpoint, "/"), &http.Client{Timeout: 30 * time.Second}, nil, nil)
	return func(cfg core.Config) (*core.Results, error) {
		p, err := paramsFromCore(cfg)
		if err != nil {
			return nil, err
		}
		spec, err := json.Marshal(p)
		if err != nil {
			return nil, err
		}
		data, err := c.Run(spec)
		if err != nil {
			return nil, err
		}
		var r SimResult
		if err := json.Unmarshal(data, &r); err != nil {
			return nil, fmt.Errorf("decoding result: %w", err)
		}
		return resultsFromRaw(cfg, &r)
	}
}
