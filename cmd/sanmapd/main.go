// Command sanmapd is the crash-safe mapping-as-a-service daemon: it owns
// a live map of a simulated system area network, persists every completed
// map as a checksummed epoch, keeps an in-flight job's newest checkpoint in
// a job file so an interrupted heal resumes instead of restarting, and
// serves route / topology / epoch queries over a unix or tcp socket while
// it heals.
//
// Usage:
//
//	sanmapd -state DIR [-gen spec] [-seed N] [-chaos spec]
//	        [-listen unix:PATH|host:port] [-once] [-crash-after N]
//
// See internal/mapd and DESIGN.md §14 for the epoch and job file format,
// the durable write both go through and the job-ID fencing rule.
package main

import (
	"os"

	"sanmap/internal/mapd"
)

func main() {
	os.Exit(mapd.Main(os.Args[1:], os.Stdout, os.Stderr))
}
