package cluster

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"

	"fairsqg/internal/core"
)

// Wire paths of the cluster protocol, served by workers.
const (
	// PathSlab executes one slab: POST SlabRequest → SlabResponse.
	PathSlab = "/cluster/slab"
	// PathGraphs lists registered graphs with their snapshot CRCs (GET)
	// and accepts pushed snapshots (PUT /cluster/graphs/{name}?crc=...).
	PathGraphs = "/cluster/graphs"
)

// requestIDHeader carries the coordinator's request ID across the
// coordinator→worker hop, so one job's slab fan-out correlates in both
// processes' logs.
const requestIDHeader = "X-Request-Id"

// SlabRequest asks a worker to execute one slab of a job's instance
// lattice against a locally registered graph.
type SlabRequest struct {
	// Graph names the graph; GraphCRC pins the exact snapshot content the
	// coordinator planned against. A worker holding a different (or no)
	// version answers 412 so the coordinator re-pushes and retries.
	Graph    string `json:"graph"`
	GraphCRC uint32 `json:"graphCrc"`
	// Job rebuilds the run configuration on the worker.
	Job JobPayload `json:"job"`
	// SplitVar and Level pin the slab (see core.SlabPlan).
	SplitVar int `json:"splitVar"`
	Level    int `json:"level"`
}

// SlabResponse is a worker's serialized slab result.
type SlabResponse struct {
	Entries   []core.SlabEntry `json:"entries"`
	Stats     core.Stats       `json:"stats"`
	ElapsedMs float64          `json:"elapsedMs"`

	// worker records which worker answered; coordinator-side only.
	worker string
}

// GraphsResponse lists a worker's registered graphs by snapshot CRC — the
// content-addressed inventory the coordinator consults before pushing.
type GraphsResponse struct {
	Graphs map[string]uint32 `json:"graphs"`
}

// wireError is the JSON error body of non-2xx cluster responses.
type wireError struct {
	Error string `json:"error"`
}

func writeWireJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	_ = enc.Encode(v)
}

func writeWireError(w http.ResponseWriter, code int, format string, args ...any) {
	writeWireJSON(w, code, wireError{Error: fmt.Sprintf(format, args...)})
}

// readJSON strictly decodes one JSON value from r, bounded at 8 MiB.
func readJSON(r io.Reader, v any) error {
	dec := json.NewDecoder(io.LimitReader(r, 8<<20))
	dec.DisallowUnknownFields()
	return dec.Decode(v)
}

// Logger is the minimal interface the cluster components log through;
// *log.Logger satisfies it. A nil logger silences output.
type Logger interface {
	Printf(format string, args ...any)
}
