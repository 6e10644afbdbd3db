// Package fuzz is the randomized strategy fuzzer: a composer that
// parallelizes sequential models with legal combinations of the
// strategy-library primitives (TP column/row splits, SP gather/scatter,
// DP batch sharding, ZeRO-style weight gathering, vocab-parallel
// embeddings), each of its decisions a weighted pick that Compose draws
// from the plan's seed and Enumerate walks exhaustively; a bug injector
// that plants paper-Table-3-style defects with recorded ground truth; a
// differential oracle that cross-checks every checker verdict against
// internal/numeric on concrete shapes; and a shrinker that minimizes
// disagreements into a replayable JSON corpus.
//
// Everything is deterministic: a plan (seed + family + structure)
// rebuilds the exact same G_s/G_d byte-for-byte, which is what makes
// corpus replay and cross-run reproducibility gates possible. The
// package is under the determinism lint contract (internal/lint); the
// one intentional randomness source — concrete tensor values for the
// numeric oracle — is seeded from the case and annotated in place.
package fuzz
