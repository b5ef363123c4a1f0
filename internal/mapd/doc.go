// Package mapd is the mapping-as-a-service layer: a long-running daemon
// (cmd/sanmapd) that owns a live map of a simulated system area network
// and survives its own crashes.
//
// Three mechanisms cooperate (DESIGN.md §14):
//
//   - The epoch store (store.go) persists every completed Map/Remap as a
//     numbered, checksummed epoch file — a bookmark the daemon can always
//     serve from. Each epoch embeds the mapper.Session checkpoint that
//     produced it, so the next remap starts from committed state even in a
//     fresh process, with the virtual clock the epoch was committed at.
//
//   - The job file (wal.go) is the in-flight job's write-ahead state: at
//     every step boundary (map drain, verification sweep, explore drain)
//     the session checkpoint is written as job-<id>.san in the epoch file
//     format, replacing the previous step's. A daemon killed mid-job
//     resumes from it instead of restarting — monotone progress — and
//     unique job IDs fence a stale resumed mapper off a newer epoch. Epochs
//     and job files go through one durable write, Store.write: temp file,
//     fsync, rename, fsync the directory.
//
//   - The query front-end (conn.go, wire.go, query.go) serves
//     route/topology/epoch queries over a unix or tcp socket in
//     line-delimited JSON, always against an atomically-swapped immutable
//     Snapshot of the latest epoch; queries never block on healing. A
//     commit builds the next Snapshot — parse the network text, compute
//     the route table up to its up-only closure — on one helper goroutine
//     while the world loop encodes the checkpoint and writes the epoch,
//     joins it on every path, and publishes only after the durable write
//     returned. The first route query from a host on a leaf switch builds
//     that leaf's routes, once per snapshot. A query on a built leaf
//     allocates nothing: requests in the canonical form are scanned in
//     place, replies are appended to the connection's buffer, which is
//     written out when the next read would block, and what depends on the
//     snapshot alone is rendered once per snapshot. A degradation ladder
//     annotates responses as confidence drops and, at the bottom rung,
//     refuses only routes that cross suspect edges. The `load` op goes
//     beyond "what is the route": it replays a canned seeded traffic plan
//     over the epoch's table with internal/loadsim and reports route
//     quality — throughput, latency percentiles, peak link utilisation,
//     deadlock freedom — once per snapshot (see WORKLOADS.md).
//
// The continuous remap loop (server.go) is driven by internal/faults
// suspicion records, with capped exponential backoff (charged to virtual
// time) between heal attempts. Crash injection for the daemon itself —
// -crash-after n kills the process after its n-th durable write, job step
// or epoch commit — powers the kill/restart harness (harness_test.go),
// which asserts the committed epochs are byte-identical to an
// uninterrupted run's.
package mapd
