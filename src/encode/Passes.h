//===- Passes.h - Composable encoding passes (Appendix B) -----*- C++ -*-===//
//
// Part of the IsoPredict reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The Appendix-B constraint system as composable pipeline passes over a
/// shared EncodingContext. Each pass emits one coherent slice of the
/// constraint system onto the context's solver:
///
///   DeclarePass        variable tables (φso/φwr/φhb, φwr_k, φchoice,
///                      boundary/cut)                  — declarations only
///   FeasibilityPass    B.1: observed so, boundary domains, read
///                      choices, φwr_k definitions, hb closure
///   ExactStrictPass    B.2.1: ∀co. ¬IsSerializable(co)
///   ApproxRankPass     B.2.2: rank-guarded pco cycle
///   CausalPass         B.3.1: (hb ∪ wwcausal) embeds in a total order
///   ReadAtomicPass     like B.3.1 with one-step visibility (§8)
///   ReadCommittedPass  B.3.2: (hb ∪ wwrc) embeds in a total order
///
/// Pass order matters and is fixed by EncoderPipeline::forOptions:
/// declare → feasibility → one strategy pass → one isolation pass —
/// the exact construction order of the pre-refactor monolithic encoder,
/// so the generated constraint system is bit-identical to it.
///
//===----------------------------------------------------------------------===//

#ifndef ISOPREDICT_ENCODE_PASSES_H
#define ISOPREDICT_ENCODE_PASSES_H

#include "encode/EncodingContext.h"

namespace isopredict {
namespace encode {

/// One stage of the encoding pipeline. Passes are stateless; everything
/// they build lives in the EncodingContext.
class EncodingPass {
public:
  virtual ~EncodingPass() = default;

  /// Stable pass name used in EncodingStats attribution and reports.
  virtual const char *name() const = 0;

  virtual void run(EncodingContext &EC) = 0;
};

/// Declares the shared variable tables (no assertions).
class DeclarePass : public EncodingPass {
public:
  const char *name() const override { return "declare"; }
  void run(EncodingContext &EC) override;
};

/// B.1: feasibility of the predicted prefix.
class FeasibilityPass : public EncodingPass {
public:
  const char *name() const override { return "feasibility"; }
  void run(EncodingContext &EC) override;
};

/// Session-mode only: links each session's cut to its boundary according
/// to the *current query's* boundary mode (Table 1) — Cut == Boundary
/// under a strict boundary, the end of the boundary read's transaction
/// under the relaxed one. One-shot encodings bake this linkage into
/// DeclarePass/FeasibilityPass; session mode hoists it here so the
/// declare+feasibility prefix is query-invariant and reusable across
/// solver scopes.
class BoundaryLinkPass : public EncodingPass {
public:
  const char *name() const override { return "boundary-link"; }
  void run(EncodingContext &EC) override;
};

/// Streaming mode only, first pass of every query scope: asserts the
/// non-monotone B.1 families the streaming base prefix omits — the
/// per-session boundary-domain disjunctions (they widen with every new
/// read, and reference the current ∞ position), the per-read choice
/// domains (they widen with every new writer of the key), and the hb
/// closure (appended transactions can hb-connect already-encoded
/// pairs, so hb cannot live below the scopes). Formula size is bounded
/// by the encoded window, not the full trace.
class WindowPass : public EncodingPass {
public:
  const char *name() const override { return "window"; }
  void run(EncodingContext &EC) override;
};

/// B.2.1: exact unserializability via a universally quantified commit
/// order.
class ExactStrictPass : public EncodingPass {
public:
  const char *name() const override { return "exact-strict"; }
  void run(EncodingContext &EC) override;
};

/// B.2.2 verbatim: free relation variables with integer rank guards
/// (§4.2.2, Fig. 6).
class ApproxRankPass : public EncodingPass {
public:
  const char *name() const override { return "approx-rank"; }
  void run(EncodingContext &EC) override;

private:
  /// The plan-driven realization (PredictOptions::PruneFormula):
  /// observed-so pairs substitute constant-true pco and lose their
  /// ww/rw/rank variables; grounded justifications lose their guards.
  void runPruned(EncodingContext &EC);
};

/// B.3.1: causal-consistency admissibility of the prediction.
class CausalPass : public EncodingPass {
public:
  const char *name() const override { return "causal"; }
  void run(EncodingContext &EC) override;
};

/// Read atomic: like B.3.1 but with one-step visibility (so ∪ wr)
/// instead of the hb closure (the paper's §8 "repeated reads"
/// extension).
class ReadAtomicPass : public EncodingPass {
public:
  const char *name() const override { return "read-atomic"; }
  void run(EncodingContext &EC) override;
};

/// B.3.2: read-committed admissibility of the prediction.
class ReadCommittedPass : public EncodingPass {
public:
  const char *name() const override { return "read-committed"; }
  void run(EncodingContext &EC) override;
};

} // namespace encode
} // namespace isopredict

#endif // ISOPREDICT_ENCODE_PASSES_H
