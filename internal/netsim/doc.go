// Package netsim is a deterministic discrete-event network simulator:
// the stand-in for the paper's evaluation testbed (an Edgecore
// Wedge100BF-32X switch and two PowerEdge R7515 servers linked at
// 100 Gbit/s through Mellanox ConnectX-5 NICs, §7).
//
// Everything runs on a virtual nanosecond clock with seeded jitter,
// so every experiment is reproducible bit for bit. The components
// model exactly the quantities the paper's figures depend on:
//
//   - links with configurable rate, propagation delay and per-frame
//     wire overhead (preamble + IFG + FCS), giving serialization
//     delays and line-rate ceilings (Figure 4);
//   - hosts with a packet-per-second generator ceiling — the ≈7 Mpkt/s
//     server bottleneck the paper observes — and fixed TX/RX stack
//     latencies (Figures 4 and 5);
//   - a switch device that runs a tofino.Pipeline with a constant
//     traversal latency independent of the loaded program, the
//     architectural contract behind "encode and decode run at line
//     rate" (Figures 4 and 5);
//   - hooks that hand digests to a control-plane agent after a
//     modelled delivery delay (the learning-delay experiment).
//
// The engine is one event queue: a radix heap of compact (time, slot)
// keys over a slab of payloads, which suits a clock that never runs
// backwards. Events run in (time, scheduling order), a total order, so
// a seed fixes the whole run. The per-frame steps — link arrival,
// switch traversal, host receive — queue a typed (handler, frame,
// port) record rather than a closure, so a warm simulator forwards
// frames without allocating; At and After take closures for
// everything else (control plane, fault schedule, traffic generators).
package netsim
