package doram

import "doram/internal/core"

// RemoteExec exposes the remote sweep executor to the external tests in
// remote_test.go, which drive internal/experiments sweeps through it.
func RemoteExec(endpoint string) func(core.Config) (*core.Results, error) {
	return remoteExec(endpoint)
}
