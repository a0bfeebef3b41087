// Package tofino models the slice of the Barefoot Tofino / TNA
// architecture that ZipLine relies on (paper §5, §6):
//
//   - a match-action pipeline with a constant per-packet traversal
//     latency, independent of program complexity — the architectural
//     contract behind "any P4 program that compiles runs at line
//     rate";
//   - exact-match tables whose entries are installed and removed only
//     by the control plane, with per-entry idle timeouts (TTLs) that
//     notify the control plane, as TNA provides. Keys and action data
//     have the fixed widths the table declares — KeyBits and
//     ActionBits size both the stored bytes and the SRAM model — and
//     Install rejects any other width, as the hardware does. Entries
//     live in flat byte arenas with a hash index of slot numbers, so
//     a table holds no pointers and a write allocates nothing once
//     the table has grown; a data-plane match returns the action data
//     in place;
//   - digests, the data-plane→control-plane message channel used to
//     report unknown bases;
//   - registers and counters;
//   - an SRAM resource model that bounds table sizes the way the
//     hardware does (the reason the paper settles on 15-bit IDs).
//
// The model is deliberately not a P4 interpreter: programs are Go
// code implementing the Program interface, but they may only touch
// state through the Ctx handles, which enforce the architecture's
// restrictions (single apply per table per pass, no data-plane table
// writes, bounded per-packet work).
package tofino
