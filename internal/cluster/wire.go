// Package cluster is the distribution tier over the online detection
// service (internal/serve), and the only package in which one node
// talks to another. A heartbeat-based registry (Membership, and the
// worker-side Peer that joins it) keeps alive → suspect → dead health
// states; a rendezvous-hash Ring partitions the verdict keyspace so each
// domain's verdict is cached on exactly one owner (aggregate cache
// capacity grows with node count instead of being cloned per replica);
// the Router adds bounded retries with jittered backoff to the next ring
// candidate, and membership alone decides which nodes are in the ring.
// The Gateway ties them together in front of N idnserve workers: it
// forwards singles to their owner, splits batch bodies by owner and
// scatter/gathers the sub-batches, splicing the workers' item bytes
// back in request order without decoding a verdict, merges per-node
// metrics into a cluster view, and exposes membership at /clusterz. A
// durable worker's Replica keeps its partition alive across churn
// (replication and anti-entropy). Every exchange any of them makes is
// one function, call.
//
// The paper's workload (per-IDN verdicts over ~1.6M names, §VI–§VII) is
// embarrassingly partitionable by domain — the same observation that
// lets ZDNS fan DNS measurement across many concurrent resolvers. The
// cluster layer applies it to serving: the normalized ACE form is both
// the cache key and the partition key, so two spellings of one name
// always land on the same owner and the owner's LRU is the only place
// that verdict is ever computed.
package cluster

// NodeState is a member's health state. Transitions: a node joins (or
// heartbeats) into StateAlive; missing heartbeats demote it to
// StateSuspect and then StateDead on a timer; consecutive proxy
// failures reported by the router demote it immediately (a
// connection-refused is better evidence than a silent heartbeat gap);
// any successful heartbeat or proxied request resurrects it to
// StateAlive.
type NodeState string

const (
	StateAlive   NodeState = "alive"
	StateSuspect NodeState = "suspect"
	StateDead    NodeState = "dead"
)

// NodeInfo is one member's externally visible record.
type NodeInfo struct {
	// ID is the node's self-chosen stable identity (survives address
	// changes); it is also the rendezvous-hash input, so a node that
	// rejoins under the same ID reclaims exactly its old key range.
	ID string `json:"id"`
	// Addr is the node's reachable host:port.
	Addr string `json:"addr"`
	// State is the current health state.
	State NodeState `json:"state"`
	// LastBeatAgoMs is milliseconds since the last heartbeat or
	// successful proxied request.
	LastBeatAgoMs int64 `json:"lastBeatAgoMs"`
	// FailStreak is the count of consecutive proxy failures since the
	// last success.
	FailStreak int `json:"failStreak"`
}

// ClusterView is an epoch-stamped membership snapshot. The epoch
// increments on every membership or state change, so consumers (the
// router's ring cache, workers pulling membership) can detect staleness
// with one integer compare.
type ClusterView struct {
	Epoch uint64     `json:"epoch"`
	Nodes []NodeInfo `json:"nodes"`
}

// JoinRequest is the POST /v1/join body a worker sends to the gateway,
// both for initial registration and as its periodic heartbeat.
type JoinRequest struct {
	ID   string `json:"id"`
	Addr string `json:"addr"`
}

// JoinResponse acknowledges a join/heartbeat with the current
// epoch-stamped membership view and the heartbeat cadence the gateway
// expects — the gateway drives the cadence so an operator retunes one
// flag, not N.
type JoinResponse struct {
	View        ClusterView `json:"view"`
	HeartbeatMs int64       `json:"heartbeatMs"`
}
