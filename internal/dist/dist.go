// Package dist is the cluster coordinator: a Cluster serves one key
// space across several csnet backend servers, placing each Merkle
// bucket on a consistent-hash ring with virtual nodes, with configurable
// replication, read-repair, hinted handoff, Merkle anti-entropy and
// membership-driven rerouting.
//
// The package reuses the binary key-value protocol from internal/csnet;
// everything network-facing runs over real loopback TCP. The RIT
// case-study course's lab content ("distributed system structures,
// distributed objects, load balancing, replication and consistency") —
// the load-balancing strategies and their simulation harness, the
// sequential-versus-eventual ReplicatedKV and the RPC middleware layer —
// lives beside the program that teaches it, in examples/distkv.
package dist
