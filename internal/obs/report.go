package obs

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"io"

	"mallocsim/internal/alloc/shadow"
	"mallocsim/internal/cost"
)

// ReportVersion is the schema version stamped into every run report.
// Bump it on any field rename or semantic change; consumers check Kind
// and Version before parsing the rest.
const ReportVersion = 1

// ReportKind identifies the document type.
const ReportKind = "mallocsim-run-report"

// WorkloadSummary is the report's view of workload.Stats.
type WorkloadSummary struct {
	Allocs    uint64 `json:"allocs"`
	Frees     uint64 `json:"frees"`
	FinalLive uint64 `json:"final_live"`
	LiveBytes uint64 `json:"live_bytes"`
	ReqBytes  uint64 `json:"req_bytes"`
	// Handoffs counts producer/consumer cross-thread frees; absent for
	// single-threaded programs so their report bytes are unchanged.
	Handoffs uint64 `json:"handoffs,omitempty"`
}

// SharingRow is one region × thread attribution row of the sharing
// summary.
type SharingRow struct {
	Region      string `json:"region"`
	Tid         uint32 `json:"tid"`
	TrueEvents  uint64 `json:"true_events"`
	FalseEvents uint64 `json:"false_events"`
}

// SharingSummary is the report's view of the cache sharing attributor
// (cache.Sharing): cross-thread coherence transfers split into true
// sharing (the consumer read words the remote owner wrote) and false
// sharing (distinct words merely cohabiting one line — the placement
// artifact the allocator controls). Present only for concurrent
// (server) runs.
type SharingSummary struct {
	Threads     int          `json:"threads"`
	TrueEvents  uint64       `json:"true_events"`
	FalseEvents uint64       `json:"false_events"`
	PingLines   uint64       `json:"ping_lines"`
	Rows        []SharingRow `json:"rows,omitempty"`
}

// RefSummary is the report's view of trace.Counter.
type RefSummary struct {
	Reads      uint64 `json:"reads"`
	Writes     uint64 `json:"writes"`
	BytesRead  uint64 `json:"bytes_read"`
	BytesWrote uint64 `json:"bytes_wrote"`
}

// CacheSummary is one cache configuration's end-of-run result.
type CacheSummary struct {
	Config   string  `json:"config"`
	Accesses uint64  `json:"accesses"`
	Misses   uint64  `json:"misses"`
	MissRate float64 `json:"miss_rate"`
}

// VMPoint is one point of the page-fault curve.
type VMPoint struct {
	Pages     uint64  `json:"pages"`
	Faults    uint64  `json:"faults"`
	FaultRate float64 `json:"fault_rate"`
}

// VMSummary is the report's view of the page-fault simulation.
type VMSummary struct {
	PageSize      uint64    `json:"page_size"`
	Refs          uint64    `json:"refs"`
	DistinctPages uint64    `json:"distinct_pages"`
	Curve         []VMPoint `json:"curve,omitempty"`
}

// Report is the machine-readable result of one simulation run: the
// end-of-run aggregates the seed already produced, plus everything the
// observability layer records — per-call histograms, the operation-time
// series, and the region × domain attribution matrix. It is the stable
// interchange format between the simulator and external analysis; treat
// field changes as schema changes and bump ReportVersion.
type Report struct {
	Version   int    `json:"version"`
	Kind      string `json:"kind"`
	Program   string `json:"program"`
	Allocator string `json:"allocator"`
	Scale     uint64 `json:"scale"`
	Seed      uint64 `json:"seed"`

	Workload WorkloadSummary `json:"workload"`
	Instr    cost.Snapshot   `json:"instr"`
	Refs     RefSummary      `json:"refs"`

	FootprintBytes      uint64 `json:"footprint_bytes"`
	TotalFootprintBytes uint64 `json:"total_footprint_bytes"`

	// Alloc carries the per-call allocator metrics (present when the
	// run was instrumented).
	Alloc *RecorderSnapshot `json:"alloc,omitempty"`
	// Series is the operation-time phase-behaviour series.
	Series []SamplePoint `json:"series,omitempty"`
	// Attribution is the region × domain reference matrix.
	Attribution []AttribRow `json:"attribution,omitempty"`

	Caches []CacheSummary `json:"caches,omitempty"`
	VM     *VMSummary     `json:"vm,omitempty"`

	// Sharing is the true/false-sharing attribution of concurrent runs
	// (absent for single-threaded programs).
	Sharing *SharingSummary `json:"sharing,omitempty"`

	// Shadow is the heap auditor's verdict (present when the run was
	// executed with heap checking): operation totals and any allocator
	// contract violations, grouped by invariant.
	Shadow *shadow.Snapshot `json:"shadow,omitempty"`
}

// NewReport returns an empty report with the version header filled in.
func NewReport() *Report {
	return &Report{Version: ReportVersion, Kind: ReportKind}
}

// Encode renders the report as indented JSON.
func (r *Report) Encode() ([]byte, error) {
	return json.MarshalIndent(r, "", "  ")
}

// Write streams the report as indented JSON, with a trailing newline.
func (r *Report) Write(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(r)
}

// Hash returns the hex SHA-256 of the report's canonical (Encode) JSON
// form. Simulation runs are deterministic, so two runs of the same
// job spec yield byte-identical reports and therefore equal hashes;
// consumers use this to content-address results and to assert that
// re-running an experiment reproduced the published numbers.
func (r *Report) Hash() (string, error) {
	b, err := r.Encode()
	if err != nil {
		return "", err
	}
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:]), nil
}
