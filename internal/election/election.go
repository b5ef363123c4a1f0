// Package election implements the mapping system's second operational mode
// (§4.2): "all interfaces or hosts actively map the network and in the
// process the participants elect a leader by comparing network interface
// addresses carried in every message. The master/slave mode is faster but
// introduces a single point of failure, whereas the election mode is more
// robust ... but has a performance cost."
//
// Every host starts an active Berkeley mapper (one desim process per host;
// scheduled crashes are engine callbacks) over the contended transport.
// Host-probe traffic carries the sender's interface address; whenever a
// host learns of a higher address — either by being probed or from a probe
// response — it passivates (keeps answering probes, stops mapping). The
// highest-address host is never passivated and its completed map wins.
package election

import (
	"errors"
	"fmt"
	"math/rand"
	"time"

	"sanmap/internal/connet"
	"sanmap/internal/desim"
	"sanmap/internal/mapper"
	"sanmap/internal/myricom"
	"sanmap/internal/obs"
	"sanmap/internal/simnet"
	"sanmap/internal/topology"
)

// Algo runs one host's mapping algorithm over the contended transport;
// cancel is the passivation poll the election machinery supplies. Both the
// Berkeley and the Myricom algorithm fit ("both algorithms have two
// operational modes", §4.2); see BerkeleyAlgo and MyricomAlgo.
type Algo func(ep simnet.Prober, cancel func() bool) (*mapper.Result, error)

// BerkeleyAlgo adapts the Berkeley mapper for election mode: each host maps
// through a session, whose Result the election keeps once Exact accepts it.
func BerkeleyAlgo(cfg mapper.Config) Algo {
	return func(ep simnet.Prober, cancel func() bool) (*mapper.Result, error) {
		s, err := mapper.NewSession(ep, func(c *mapper.Config) { *c = cfg; c.Cancel = cancel })
		if err != nil {
			return nil, err
		}
		res, err := s.Map()
		if err == nil {
			_, err = res.Exact()
		}
		if errors.Is(err, mapper.ErrCanceled) {
			return nil, errPassivated
		}
		if err != nil {
			return nil, err
		}
		return res, nil
	}
}

// MyricomAlgo adapts the Myricom mapper for election mode.
func MyricomAlgo(cfg myricom.Config) Algo {
	return func(ep simnet.Prober, cancel func() bool) (*mapper.Result, error) {
		cfg := cfg
		cfg.Cancel = cancel
		m, err := myricom.Run(ep, cfg)
		if errors.Is(err, myricom.ErrCanceled) {
			return nil, errPassivated
		}
		if err != nil {
			return nil, err
		}
		return &mapper.Result{Map: &mapper.Map{Network: m.Network, Mapper: m.Mapper}, Confidence: 1}, nil
	}
}

// errPassivated is the internal signal that a mapper yielded.
var errPassivated = errors.New("election: passivated")

// electionMetrics is the run's obs handle set (nil no-op handles when
// Config.Metrics is nil), mirroring the Result counters.
type electionMetrics struct {
	passivated *obs.Counter
	crashed    *obs.Counter
	completed  *obs.Counter
	transfers  *obs.Counter
}

// Config parameterises an election-mode run.
type Config struct {
	Model  simnet.Model
	Timing simnet.Timing
	// Mapper is the per-host Berkeley configuration (depth etc.) used when
	// Algorithm is nil; the Cancel hook is managed by the election
	// machinery.
	Mapper mapper.Config
	// Algorithm overrides the per-host mapping algorithm (default:
	// BerkeleyAlgo(Mapper)).
	Algorithm Algo
	// Rng drives interface-address assignment and start staggering; it must
	// be non-nil (the variance it induces is Fig 7's point).
	Rng *rand.Rand
	// Crash schedules host failures by host name: at the given virtual
	// time the host stops mapping AND stops answering probes — the single
	// point of failure §4.2's election mode exists to survive. When the
	// crashed host held the leadership lease, its lease entries are reset
	// so passivated mappers can detect the vacancy and resume.
	Crash map[string]time.Duration
	// Tracer, when non-nil, records the run onto the unified observability
	// layer (internal/obs): one cat-"election" span per participant
	// mapper, each host on its own track so the virtually-concurrent
	// lifetimes render as separate rows, plus instants "passivate",
	// "resume", "crash", "complete" and "lead".
	Tracer *obs.Tracer
	// Metrics, when non-nil, counts the run into the registry (names
	// under "election.") and is inherited by the per-host Mapper config
	// unless that sets its own.
	Metrics *obs.Registry
}

// Result summarises one election run.
type Result struct {
	// Winner is the elected leader's host name.
	Winner string
	// Map is the leader's completed map, with its degradation report.
	Map *mapper.Result
	// Elapsed is the virtual time at which the leader finished mapping.
	Elapsed time.Duration
	// Passivated counts mappers that yielded before completing.
	Passivated int
	// Crashed counts mappers lost to scheduled host crashes.
	Crashed int
	// Completed counts mappers that ran to completion (the winner, plus any
	// that finished before hearing from a better one).
	Completed int
	// Probes aggregates probe counts across all participants.
	Probes simnet.Stats
}

const (
	// maxStagger bounds the random daemon start offsets.
	maxStagger = 500 * time.Microsecond
	// resumePoll is how often a passivated mapper re-checks its leadership
	// lease when crashes are scheduled. Without scheduled crashes
	// passivation is final and the poll never runs.
	resumePoll = 5 * time.Millisecond
)

// Run executes one election-mode mapping of the network.
func Run(net *topology.Network, cfg Config) (*Result, error) {
	if cfg.Rng == nil {
		return nil, fmt.Errorf("election: Config.Rng is required")
	}
	hosts := net.Hosts()
	if len(hosts) < 2 {
		return nil, fmt.Errorf("election: need at least two hosts")
	}
	crashing := 0
	for _, h := range hosts {
		if _, ok := cfg.Crash[net.NameOf(h)]; ok {
			crashing++
		}
	}
	if crashing != len(cfg.Crash) {
		return nil, fmt.Errorf("election: Crash names a host the network does not have")
	}
	if crashing >= len(hosts) {
		return nil, fmt.Errorf("election: every host is scheduled to crash")
	}
	// resume turns on the self-healing protocol: passivated mappers poll
	// their lease and take over when the leader dies. Off without crashes,
	// keeping the historical single-pass behaviour byte for byte.
	resume := crashing > 0

	// Interface addresses: a random permutation; the maximum wins.
	addr := make(map[topology.NodeID]uint64, len(hosts))
	perm := cfg.Rng.Perm(len(hosts))
	var winner topology.NodeID
	for i, h := range hosts {
		addr[h] = uint64(perm[i]) + 1
		if perm[i] == len(hosts)-1 {
			winner = h
		}
	}

	algo := cfg.Algorithm
	if algo == nil {
		if cfg.Mapper.Metrics == nil {
			cfg.Mapper.Metrics = cfg.Metrics
		}
		algo = BerkeleyAlgo(cfg.Mapper)
	}
	em := electionMetrics{
		passivated: cfg.Metrics.Counter("election.passivated"),
		crashed:    cfg.Metrics.Counter("election.crashed"),
		completed:  cfg.Metrics.Counter("election.completed"),
		transfers:  cfg.Metrics.Counter("election.transfers"),
	}
	eng := desim.New()
	cn := connet.New(net, cfg.Model, cfg.Timing)
	// heard[h] is the highest interface address host h has seen.
	heard := make(map[topology.NodeID]uint64, len(hosts))
	crashed := make(map[topology.NodeID]bool, crashing)

	res := &Result{Winner: net.NameOf(winner)}
	var runErr error
	var done bool       // some mapper ran to completion
	var bestAddr uint64 // highest completer address (resume mode)

	for hi, h := range hosts {
		at, doomed := cfg.Crash[net.NameOf(h)]
		if !doomed {
			continue
		}
		eng.At(at, func() {
			crashed[h] = true
			cfg.Tracer.OnTrack(hi+1).Instant("election", "crash", eng.Now(), obs.String("host", net.NameOf(h)))
			cn.Quiet().SetResponder(h, false)
			// Revoke the dead host's leases in deterministic host order, so
			// passivated mappers notice the vacancy at their next poll.
			for _, x := range hosts {
				if heard[x] == addr[h] {
					heard[x] = 0
				}
			}
		})
	}

	for hi, h := range hosts {
		hi, h := hi, h
		start := time.Duration(cfg.Rng.Int63n(int64(maxStagger)))
		eng.SpawnAt(start, net.NameOf(h), func(p *desim.Proc) {
			// Each participant records onto its own track: the mapper
			// lifetimes are virtually concurrent and would otherwise
			// overlap unreadably on one Chrome row.
			track := cfg.Tracer.OnTrack(hi + 1)
			began := p.Now()
			defer func() {
				track.Span("election", "mapper", began, p.Now(), obs.String("host", net.NameOf(h)))
			}()
			ep := cn.Endpoint(h, p)
			ep.OnHostProbe = func(src, dst topology.NodeID) {
				// The probe carries src's address; the response carries
				// dst's. Both sides learn. A crashed host's mapper can have
				// probes left to send before it next polls its cancel hook,
				// but the host is dead: they must not hand out a lease the
				// crash revoked.
				if crashed[src] {
					return
				}
				if addr[src] > heard[dst] {
					heard[dst] = addr[src]
				}
				if addr[dst] > heard[src] {
					heard[src] = addr[dst]
				}
			}
			defer func() {
				st := ep.Stats()
				res.Probes.HostProbes += st.HostProbes
				res.Probes.HostHits += st.HostHits
				res.Probes.SwitchProbes += st.SwitchProbes
				res.Probes.SwitchHits += st.SwitchHits
			}()
			for {
				m, err := algo(ep, func() bool { return crashed[h] || heard[h] > addr[h] })
				switch {
				case err == errPassivated:
					if crashed[h] {
						res.Crashed++
						em.crashed.Inc()
						return
					}
					track.Instant("election", "passivate", p.Now(), obs.String("host", net.NameOf(h)))
					if !resume {
						res.Passivated++
						em.passivated.Inc()
						return
					}
					// Hold as a warm standby: if the lease clears (the
					// leader died before anyone completed), restart mapping.
					for heard[h] > addr[h] && !done && !crashed[h] {
						p.Sleep(resumePoll)
					}
					if heard[h] > addr[h] || done || crashed[h] {
						res.Passivated++
						em.passivated.Inc()
						return
					}
					track.Instant("election", "resume", p.Now(), obs.String("host", net.NameOf(h)))
					continue
				case err != nil:
					if runErr == nil {
						runErr = fmt.Errorf("election: mapper at %s: %w", net.NameOf(h), err)
					}
					return
				default:
					res.Completed++
					em.completed.Inc()
					track.Instant("election", "complete", p.Now(), obs.String("host", net.NameOf(h)))
					done = true
					if resume {
						// The planned winner may be dead; leadership goes to
						// the highest-addressed mapper that finished.
						if addr[h] > bestAddr {
							bestAddr = addr[h]
							res.Winner = net.NameOf(h)
							res.Map = m
							res.Elapsed = p.Now()
							if h != winner {
								// Leadership moved off the planned winner —
								// the crash the election mode survives.
								em.transfers.Inc()
							}
							track.Instant("election", "lead", p.Now(), obs.String("host", net.NameOf(h)))
						}
					} else if h == winner {
						res.Map = m
						res.Elapsed = p.Now()
						track.Instant("election", "lead", p.Now(), obs.String("host", net.NameOf(h)))
					}
					return
				}
			}
		})
	}
	eng.Run()
	if runErr != nil {
		return nil, runErr
	}
	if res.Map == nil {
		return nil, fmt.Errorf("election: winner %s produced no map", res.Winner)
	}
	return res, nil
}
