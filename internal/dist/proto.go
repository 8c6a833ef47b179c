// Package dist is a coordinator/worker runtime that scatters the repo's two
// embarrassingly-parallel workloads across local OS processes and gathers
// the results over pipes:
//
//   - realization sharding: the Monte-Carlo realizations of sim.EvaluateAll
//     are partitioned into contiguous index ranges, several per worker and
//     pipelined over each connection after one setup frame binds the
//     workload and schedules; each worker realizes a range with the
//     coordinator-derived seed slice (sim.RealizeSeeded) and answers with
//     one frame of raw makespans. The coordinator places them by range
//     index, so every metric — quantiles included — is bit-identical to the
//     single-process run for any shard count.
//
//   - island sharding: the GA islands of robust.Solve are hosted by worker
//     processes (ga.Island, one state machine shared with the in-process
//     ga.RunIslands). The coordinator drives the epoch barriers and routes
//     the ring migrants in (generation, island) order, so the trajectory —
//     and the returned schedule — is bit-identical to the in-process island
//     run for any worker count. A solve whose workers fail in transport
//     finishes in process, on robust.Solve, with the same result.
//
// Range and island requests carry a sequence number, drawn from their
// pool's counter, that their answers echo, so a duplicated or stale answer
// shows up as a mismatch, which the coordinator treats as a transport
// failure.
//
// The wire format is the length-prefixed binary frame of internal/wio:
// control messages are JSON payloads (Go's encoding/json round-trips the
// uint64 seeds exactly into uint64 struct fields), range answers are raw
// little-endian blocks. Workers are plain `robsched worker`
// subprocesses speaking the protocol on stdin/stdout; stderr passes through
// for crash visibility.
package dist

import (
	"encoding/binary"
	"encoding/json"
	"fmt"
	"io"
	"math"

	"robsched/internal/sim"
	"robsched/internal/wio"
)

// Frame kinds. The coordinator only ever sends job/control kinds; workers
// only ever send response kinds. An unknown kind is a protocol error on
// either side. Kinds 1, 2, 3, 12, 13, 14 and 15 are retired and stay
// unassigned, so a frame from a peer built before their retirement can
// never parse as a different message.
const (
	// KErr carries an ErrMsg (JSON) in place of any normal response.
	KErr byte = 4
	// KIslandInit carries an IslandInit (JSON): build the engine and host
	// the listed islands. Response: KIslandState.
	KIslandInit byte = 5
	// KIslandState carries an IslandStates (JSON): the hosted islands'
	// bests in island order. Sent in response to init, epoch and migrate.
	KIslandState byte = 6
	// KEpoch carries an EpochReq (JSON): advance every hosted island.
	// Response: KIslandState.
	KEpoch byte = 7
	// KMigrate carries a MigrateReq (JSON): replace each target island's
	// worst individual with the routed migrant. Response: KIslandState
	// with the post-migration bests.
	KMigrate byte = 8
	// KIslandFinish (empty payload) drops the hosted islands and engine.
	// Response: KOK.
	KIslandFinish byte = 9
	// KOK (empty payload) acknowledges a control message.
	KOK byte = 10
	// KShutdown (empty payload) asks the worker to exit cleanly. No
	// response; the worker closes its end.
	KShutdown byte = 11
	// KSimSetup carries a SimSetup (JSON): bind the workload and schedules
	// once per connection, so the pipelined KSimRange requests that follow
	// stay tiny (a seed window instead of a full problem document). No
	// direct response — a failed setup surfaces as KErr when the first
	// range references it.
	KSimSetup byte = 16
	// KSimRange carries a SimRange (JSON): realize one seed window against
	// the connection's current setup. Response: KSimResult.
	KSimRange byte = 17
	// KSimResult answers one KSimRange: the range's Seq as a little-endian
	// uint64, then each bound schedule's makespans over the window as raw
	// little-endian float64s, in schedule order (see encodeResult).
	KSimResult byte = 18
)

// ErrMsg is a worker-side failure, shipped back in place of a response.
type ErrMsg struct {
	Error string `json:"error"`
	// Code classifies machine-actionable failures. "setup" means a
	// KSimRange referenced a setup the worker does not hold — the setup
	// frame was lost in transit — which the coordinator treats as
	// transient: discard the connection and reassign the range, rather
	// than failing the job.
	Code string `json:"code,omitempty"`
}

// ErrCodeSetup is the ErrMsg.Code for a range whose setup is missing.
const ErrCodeSetup = "setup"

// SimSetup binds a Monte-Carlo evaluation's static state — the workload,
// the schedule set under common random numbers, and the engine knobs — to a
// worker connection, so each subsequent SimRange ships only its seed
// window. ID is unique within the pool; a range naming another ID is
// answered with a KErr coded "setup" (see ErrMsg.Code).
type SimSetup struct {
	ID        uint64             `json:"id"`
	Workload  wio.WorkloadJSON   `json:"workload"`
	Schedules []wio.ScheduleJSON `json:"schedules"`
	// Antithetic mirrors odd global realizations (matching the seed pairing
	// of the coordinator's sim.SeedVector call); the parity comes from each
	// range's global Base. BatchSize and Workers are the worker-side engine
	// knobs; neither can change a bit of the results.
	Antithetic bool `json:"antithetic,omitempty"`
	BatchSize  int  `json:"batch_size,omitempty"`
	Workers    int  `json:"workers,omitempty"`
	// Model, Corr, LoadCOV and ParetoShape select the scenario layer's
	// duration model (sim.Options fields of the same names). All four are
	// omitted at their zero values, so the default uniform-independent wire
	// encoding is byte-identical to the pre-scenario protocol.
	Model       sim.DurationModel `json:"model,omitempty"`
	Corr        sim.Correlation   `json:"corr,omitempty"`
	LoadCOV     float64           `json:"load_cov,omitempty"`
	ParetoShape float64           `json:"pareto_shape,omitempty"`
}

// SimRange asks for one contiguous window of the setup's evaluation:
// sim.RealizeSeeded(…, Seeds, Base) against the bound schedules. The seed
// window plus the global base index are the entire stream-derivation state,
// so the worker produces exactly the makespans the coordinator's full-range
// run would produce at [Base, Base+len(Seeds)). Seq heads the KSimResult
// that answers it.
type SimRange struct {
	Setup uint64   `json:"setup"`
	Base  int      `json:"base"`
	Seeds []uint64 `json:"seeds"`
	Seq   uint64   `json:"seq,omitempty"`
}

// Genotype is a chromosome on the wire.
type Genotype struct {
	Order []int `json:"order"`
	Proc  []int `json:"proc"`
}

// SolverOptions is the JSON-safe subset of robust.Options an island worker
// needs to rebuild the engine. Everything here is deterministic
// configuration; callbacks and telemetry stay in the coordinator process.
type SolverOptions struct {
	Mode        int     `json:"mode"`
	Eps         float64 `json:"eps,omitempty"`
	SlackMetric int     `json:"slack_metric,omitempty"`

	PopSize        int     `json:"pop_size"`
	CrossoverRate  float64 `json:"crossover_rate"`
	MutationRate   float64 `json:"mutation_rate"`
	MaxGenerations int     `json:"max_generations"`
	Stagnation     int     `json:"stagnation,omitempty"`

	NoHEFTSeed     bool `json:"no_heft_seed,omitempty"`
	NoMetricsCache bool `json:"no_metrics_cache,omitempty"`
}

// IslandSeed assigns one island (by its global ring index) to the receiving
// worker, with the 64-bit seed of its RNG stream. The coordinator derives
// the seeds by root.SplitSeed() in island order, so rng.New(Seed) in the
// worker is bit-identical to the root.Split() fan-out of the in-process
// ga.RunIslands.
type IslandSeed struct {
	Island int    `json:"island"`
	Seed   uint64 `json:"seed"`
}

// IslandInit asks a worker to build the solver engine for the workload and
// host the listed islands.
type IslandInit struct {
	Workload wio.WorkloadJSON `json:"workload"`
	Opt      SolverOptions    `json:"opt"`
	Islands  []IslandSeed     `json:"islands"`
	Seq      uint64           `json:"seq,omitempty"`
}

// EpochReq advances every hosted island by Gens generations. StartGen is
// the number of generations already evolved (observer numbering parity with
// the in-process runner; dist runs carry no observer but the state machine
// keeps the argument).
type EpochReq struct {
	StartGen int    `json:"start_gen"`
	Gens     int    `json:"gens"`
	Seq      uint64 `json:"seq,omitempty"`
}

// Migrant routes one ring migrant to a hosted island.
type Migrant struct {
	Island   int      `json:"island"`
	Genotype Genotype `json:"genotype"`
}

// MigrateReq delivers this barrier's migrants for the worker's islands.
type MigrateReq struct {
	Migrants []Migrant `json:"migrants"`
	Seq      uint64    `json:"seq,omitempty"`
}

// IslandState reports one hosted island's running best.
type IslandState struct {
	Island int      `json:"island"`
	Best   Genotype `json:"best"`
	// BestFitness is serialized as IEEE-754 bits: the ε-constraint mode
	// can produce ±Inf fitnesses, which JSON numbers cannot carry, and
	// the coordinator's tie-breaking must see the exact value.
	BestFitnessBits uint64 `json:"best_fitness_bits"`
	SinceImprove    int    `json:"since_improve"`
}

// BestFitness decodes the exact fitness value.
func (s IslandState) BestFitness() float64 { return math.Float64frombits(s.BestFitnessBits) }

// IslandStates is a worker's response to init, epoch and migrate: its
// hosted islands in ascending island order. Seq echoes the request's
// sequence number, so a duplicated or stale response can never be folded
// into the coordinator's state as if it answered the current round.
type IslandStates struct {
	States []IslandState `json:"states"`
	Seq    uint64        `json:"seq,omitempty"`
}

// encodeResult builds the KSimResult payload answering the range seq: the
// seq, then every schedule's makespan window in schedule order.
func encodeResult(seq uint64, mks [][]float64) []byte {
	n := 0
	for _, v := range mks {
		n += len(v)
	}
	out := binary.LittleEndian.AppendUint64(make([]byte, 0, 8+8*n), seq)
	for _, v := range mks {
		for _, m := range v {
			out = binary.LittleEndian.AppendUint64(out, math.Float64bits(m))
		}
	}
	return out
}

// decodeResult checks that a KSimResult payload answers the range seq over
// [base, base+width) of every out vector, then decodes it into those
// windows. A payload of any other length or seq is rejected before
// anything is written.
func decodeResult(out [][]float64, base, width int, seq uint64, payload []byte) error {
	if want := 8 + 8*len(out)*width; len(payload) != want {
		return fmt.Errorf("dist: range result is %d bytes, want %d", len(payload), want)
	}
	if got := binary.LittleEndian.Uint64(payload); got != seq {
		return fmt.Errorf("dist: range result for seq %d, want %d", got, seq)
	}
	payload = payload[8:]
	for _, v := range out {
		for i := range v[base : base+width] {
			v[base+i] = math.Float64frombits(binary.LittleEndian.Uint64(payload))
			payload = payload[8:]
		}
	}
	return nil
}

// marshalJSON encodes a control message body.
func marshalJSON(v any) ([]byte, error) {
	payload, err := json.Marshal(v)
	if err != nil {
		return nil, fmt.Errorf("dist: encoding %T: %w", v, err)
	}
	return payload, nil
}

// sendJSON writes v as one JSON-payload frame.
func sendJSON(w io.Writer, kind byte, v any) error {
	payload, err := marshalJSON(v)
	if err != nil {
		return err
	}
	return wio.WriteFrame(w, kind, payload)
}

// parseJSON decodes a JSON control payload.
func parseJSON(payload []byte, v any) error {
	if err := json.Unmarshal(payload, v); err != nil {
		return fmt.Errorf("dist: decoding %T: %w", v, err)
	}
	return nil
}
