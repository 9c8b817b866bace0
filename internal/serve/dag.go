package serve

// Operation-DAG requests: one request is a small DAG of set operations —
// (A ∪ B) \ C, k-way unions, filter-then-count — that the server plans
// and executes as one fused pipelined tree pass instead of N client
// round-trips.
//
// This is the paper's composition win exposed at the API boundary. A
// single-op workload never builds pipelines deeper than one tree
// operation, so the treap backend's cells only ever buy overlap *within*
// an op. A DAG request chains operations: every inner node's result root
// is created unwritten and handed to its consumers immediately, so the
// difference in (A ∪ B) \ C starts splitting against the union's root
// while the union is still materializing — the O(lg n + lg m) pipelined
// composition of the paper, in one server round-trip. Intermediate roots
// are never published to clients (they carry no version and no shard
// publication; only the terminal's aggregate leaves the server), which
// is what keeps the plan free to fuse them.
//
// Evaluation is sharded exactly like the rest of the server: every
// operation in the vocabulary (union, difference, intersect) preserves
// key ranges, so the DAG is lowered once per shard over that shard's
// slice of each leaf — the set leaf is the shard's snapshot root from a
// consistent cut, literal leaves are routed by the shard pivots — and
// the per-shard results are range-disjoint by construction. The terminal
// aggregates across shards: Count sums per-shard countdown Len walks
// through one completion cell spanning the terminal roots; Keys
// concatenates the materialized per-shard contents in shard order.
//
// Validation is strict (bounded node count and depth, exactly one leaf
// or op role per node, known set refs, acyclic args) and all shape
// errors are typed ErrBadRequest so the HTTP layer can answer 400, not
// 500. Admission control sees a DAG before the planner does: its node
// count is charged against the shard high-water marks, so an over-budget
// DAG sheds with ErrOverloaded without costing planner cycles.

import (
	"errors"
	"fmt"
	"time"
)

// ErrBadRequest marks a malformed request — an unknown op name, an
// invalid DAG shape, or a reference to an unknown set. The HTTP layer
// maps it to 400 (client bug, do not retry), never 500.
var ErrBadRequest = errors.New("serve: bad request")

// SetRef is the name under which a DAG leaf reads the server's set (the
// only stored set today; the namespace exists so multi-set servers can
// extend it without a wire change).
const SetRef = "set"

// DAG shape caps, enforced before admission: a request may not carry
// more than MaxDAGNodes nodes, and no operation may nest deeper than
// MaxDAGDepth below the result (leaves have depth 1). Wide k-way ops do
// not add depth — args fold at one level — so the caps bound planner
// and pipeline work without forbidding broad unions.
const (
	MaxDAGNodes = 32
	MaxDAGDepth = 8
)

// Terminal walks a DAG request can ask for (DAGRequest.Want).
const (
	// DAGWantCount answers the result set's cardinality via per-shard
	// countdown Len walks — the fast path: it never materializes the
	// result, counting subtrees as they resolve.
	DAGWantCount = "count"
	// DAGWantKeys answers the result set's full sorted contents,
	// blocking until every shard's result materializes. Verification
	// path, like GET /keys.
	DAGWantKeys = "keys"
)

// DAGNode is one node of an operation DAG: exactly one of the three
// roles must be populated — a named set leaf (Ref), a literal key-set
// leaf (Keys), or an inner operation (Op over Args).
type DAGNode struct {
	// Ref names a stored set this leaf reads; the only known name is
	// SetRef ("set"), the server's contents at the request's cut.
	Ref string `json:"ref,omitempty"`
	// Keys is a literal key-set leaf (need not be sorted or distinct).
	// An empty-but-present array is the empty set.
	Keys []int `json:"keys,omitempty"`
	// Op is an inner operation: union, difference, or intersect.
	Op string `json:"op,omitempty"`
	// Args are the operand node indices, folded left to right:
	// [a,b,c] means (a OP b) OP c. At least two; forward references
	// are fine as long as the graph stays acyclic.
	Args []int `json:"args,omitempty"`
}

// DAGRequest is one operation-DAG request: the JSON body of POST /dag
// and the argument of Server.EvalDAG.
type DAGRequest struct {
	// Nodes are the DAG's nodes; Args refer to nodes by index.
	Nodes []DAGNode `json:"nodes"`
	// Result is the terminal node's index; nil defaults to the last
	// node. Nodes the result does not depend on are not evaluated.
	Result *int `json:"result,omitempty"`
	// Want selects the terminal walk: DAGWantCount (the default) or
	// DAGWantKeys.
	Want string `json:"want,omitempty"`
}

// DAGResult is the answer to one DAG request.
type DAGResult struct {
	// Count is the result set's cardinality (set for every want kind).
	Count int
	// Keys is the result set's sorted contents (want = keys only).
	Keys []int
	// Cut is the consistent per-shard version cut the evaluation
	// observed — the same cut every leaf's set reference read.
	Cut Cut
}

// dagPlan is the validated, topologically ordered form of a DAGRequest:
// evaluation order (dependencies first, ending at the result), the
// pre-sorted literal leaves, and the resolved terminal.
type dagPlan struct {
	order  []int   // node indices reachable from result, dependencies first
	keys   [][]int // per node: sorted distinct literal keys (literal leaves only)
	result int
	want   string
}

// checkDAGShape is the pre-admission cap check: cheap enough to run on
// every offered request before any budget is spent on it.
func checkDAGShape(req DAGRequest) error {
	if len(req.Nodes) == 0 {
		return fmt.Errorf("%w: dag has no nodes", ErrBadRequest)
	}
	if len(req.Nodes) > MaxDAGNodes {
		return fmt.Errorf("%w: dag has %d nodes, max %d", ErrBadRequest, len(req.Nodes), MaxDAGNodes)
	}
	return nil
}

// planDAG validates the request and returns its evaluation plan. Every
// error wraps ErrBadRequest. The walk starts at the result node, so
// unreachable nodes cost nothing and are not validated beyond the shape
// caps — they cannot affect the answer.
func planDAG(req DAGRequest) (*dagPlan, error) {
	if err := checkDAGShape(req); err != nil {
		return nil, err
	}
	n := len(req.Nodes)
	result := n - 1
	if req.Result != nil {
		result = *req.Result
	}
	if result < 0 || result >= n {
		return nil, fmt.Errorf("%w: result node %d out of range [0,%d)", ErrBadRequest, result, n)
	}
	want := req.Want
	if want == "" {
		want = DAGWantCount
	}
	if want != DAGWantCount && want != DAGWantKeys {
		return nil, fmt.Errorf("%w: unknown want %q (want %q or %q)", ErrBadRequest, req.Want, DAGWantCount, DAGWantKeys)
	}
	plan := &dagPlan{keys: make([][]int, n), result: result, want: want}

	// Iterative-friendly sizes (≤ MaxDAGNodes), so plain recursion is
	// fine: tricolor DFS orders dependencies first, catches cycles, and
	// carries the nesting depth for the cap.
	const (
		white = iota
		grey
		black
	)
	color := make([]int8, n)
	depth := make([]int, n)
	var visit func(i int) error
	visit = func(i int) error {
		if i < 0 || i >= n {
			return fmt.Errorf("%w: arg index %d out of range [0,%d)", ErrBadRequest, i, n)
		}
		switch color[i] {
		case black:
			return nil
		case grey:
			return fmt.Errorf("%w: node %d is on a cycle", ErrBadRequest, i)
		}
		color[i] = grey
		nd := req.Nodes[i]
		switch {
		case nd.Ref != "":
			if nd.Keys != nil || nd.Op != "" || nd.Args != nil {
				return fmt.Errorf("%w: node %d mixes a set-ref leaf with other roles", ErrBadRequest, i)
			}
			if nd.Ref != SetRef {
				return fmt.Errorf("%w: node %d references unknown set %q (known sets: %q)", ErrBadRequest, i, nd.Ref, SetRef)
			}
			depth[i] = 1
		case nd.Op != "":
			if nd.Keys != nil {
				return fmt.Errorf("%w: node %d mixes an op with a literal leaf", ErrBadRequest, i)
			}
			switch Op(nd.Op) {
			case OpUnion, OpDifference, OpIntersect:
			default:
				return fmt.Errorf("%w: node %d: unknown dag op %q (want union, difference, or intersect)", ErrBadRequest, i, nd.Op)
			}
			if len(nd.Args) < 2 {
				return fmt.Errorf("%w: node %d: op %s needs at least 2 args, got %d", ErrBadRequest, i, nd.Op, len(nd.Args))
			}
			d := 0
			for _, a := range nd.Args {
				if err := visit(a); err != nil {
					return err
				}
				if depth[a] > d {
					d = depth[a]
				}
			}
			depth[i] = d + 1
			if depth[i] > MaxDAGDepth {
				return fmt.Errorf("%w: node %d nests deeper than the max dag depth %d", ErrBadRequest, i, MaxDAGDepth)
			}
		case nd.Keys != nil:
			if nd.Args != nil {
				return fmt.Errorf("%w: node %d mixes a literal leaf with args", ErrBadRequest, i)
			}
			plan.keys[i] = sortedDistinct(nd.Keys)
			depth[i] = 1
		default:
			return fmt.Errorf("%w: node %d is empty — want a ref or keys leaf, or an op over args", ErrBadRequest, i)
		}
		color[i] = black
		plan.order = append(plan.order, i)
		return nil
	}
	if err := visit(result); err != nil {
		return nil, err
	}
	return plan, nil
}

// EvalDAG answers one operation-DAG request against a consistent cut of
// the set. The whole DAG evaluates server-side as one fused pass: on
// the treap backend every inner operation consumes its operands' roots
// before they materialize, so the request's critical path is one
// pipelined tree composition, not a sum of round-trips.
//
// Shape errors return ErrBadRequest (HTTP 400). Admission is checked
// before planning, with the DAG's node count charged against the shard
// high-water marks: an over-budget DAG sheds with ErrOverloaded.
func (s *Server) EvalDAG(req DAGRequest) (DAGResult, error) {
	if err := checkDAGShape(req); err != nil {
		return DAGResult{}, err
	}
	// Admission + consistent cut. The cost charge is the node count:
	// each planned node becomes at least one scheduler task per shard,
	// so a DAG near the high-water mark is shed exactly like the
	// equivalent burst of single ops would be — before the planner
	// spends anything on it.
	sets, cut, start, err := s.cutSnapshot(len(req.Nodes))
	if err != nil {
		return DAGResult{}, err
	}
	defer s.done()
	plan, err := planDAG(req)
	if err != nil {
		return DAGResult{}, err
	}
	s.met.dagRequests.Add(1)
	s.met.dagNodes.Add(int64(len(plan.order)))

	// Lower the plan once per shard. sh.actx (affine policy) keeps each
	// shard's slice of the pipeline near that shard's preferred worker.
	// A set leaf is the shard's state from the cut, as is — on the treap
	// a root that may still be materializing behind an earlier mutation;
	// intermediates are backend values like any other, just never stored.
	roots := make([]Value, len(sets))
	for i, set := range sets {
		sh := s.shards[i]
		vals := make([]Value, len(req.Nodes))
		for _, idx := range plan.order {
			nd := req.Nodes[idx]
			switch {
			case nd.Ref != "":
				vals[idx] = set
			case nd.Op != "":
				v := vals[nd.Args[0]]
				for _, a := range nd.Args[1:] {
					v = s.be.Combine(sh.actx, Op(nd.Op), v, vals[a])
				}
				vals[idx] = v
			default:
				vals[idx] = s.be.FromKeys(sh.actx, pieceKeys(plan.keys[idx], s.pivots, i))
			}
		}
		roots[i] = vals[plan.result]
	}

	// The terminal is the same scatter-gather Len and Keys run over the
	// cut itself — they are the one-leaf DAG.
	res := DAGResult{Cut: cut}
	if plan.want == DAGWantKeys {
		res.Keys = s.gatherKeys(roots)
		res.Count = len(res.Keys)
	} else if res.Count, err = s.gatherCount(roots); err != nil {
		return DAGResult{}, err
	}
	s.met.dagLat.record(time.Since(start))
	return res, nil
}
