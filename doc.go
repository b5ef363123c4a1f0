// Package sanmap is a reproduction of "System Area Network Mapping"
// (Mainwaring, Chun, Schleimer, Wilkerson — SPAA 1997): probe-based
// topology discovery for switched system area networks with anonymous,
// source-routed, relatively-addressed switches, plus everything the paper's
// evaluation rests on — a Myrinet simulator, the Myricom baseline mapper,
// UP*/DOWN* deadlock-free route computation, the Berkeley NOW cluster
// configurations, an election protocol, and a discrete-event engine for
// concurrent-mapping and cross-traffic experiments.
//
// The implementation lives under internal/ (one package per subsystem; see
// DESIGN.md for the inventory), the runnable entry points under cmd/ and the
// paper's scenarios in Example functions go test checks; the paper's tables
// and figures are regenerated by cmd/sanexp and bench_test.go's benchmarks.
package sanmap
