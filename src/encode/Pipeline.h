//===- Pipeline.h - Encoding-pass pipeline --------------------*- C++ -*-===//
//
// Part of the IsoPredict reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Runs a sequence of encoding passes over one EncodingContext,
/// attributing literals and wall-clock to each pass
/// (EncodingStats::Passes — the breakdown bench/micro_encoding
/// reports).
///
/// predict() assembles the standard pipeline from its options through
/// forOptions(); nothing stops callers from composing their own pass
/// sequence for experiments.
///
//===----------------------------------------------------------------------===//

#ifndef ISOPREDICT_ENCODE_PIPELINE_H
#define ISOPREDICT_ENCODE_PIPELINE_H

#include "encode/Passes.h"

#include <memory>
#include <vector>

namespace isopredict {
namespace encode {

class EncoderPipeline {
public:
  EncoderPipeline() = default;
  EncoderPipeline(EncoderPipeline &&) = default;
  EncoderPipeline &operator=(EncoderPipeline &&) = default;

  EncoderPipeline &add(std::unique_ptr<EncodingPass> Pass) {
    Passes.push_back(std::move(Pass));
    return *this;
  }

  /// Runs every pass in order; appends one PassStats entry per pass to
  /// \p Stats (literals sum to the context's asserted-literal delta).
  void run(EncodingContext &EC, EncodingStats &Stats) const;

  /// The standard Appendix-B pipeline for \p Opts:
  /// declare → feasibility → strategy (B.2) → isolation (B.3).
  static EncoderPipeline forOptions(const PredictOptions &Opts);

  /// The query-invariant prefix of a PredictSession (session-mode
  /// EncodingContext): declare → feasibility. Encoded once per session,
  /// below every solver scope.
  static EncoderPipeline forSessionBase();

  /// The per-query suffix of a PredictSession: boundary-link →
  /// strategy (B.2) → isolation (B.3), asserted inside one push/pop
  /// scope on top of the forSessionBase prefix.
  static EncoderPipeline forQuery(const PredictOptions &Opts);

  /// The per-query suffix of a *streaming* PredictSession: window →
  /// boundary-link → strategy → isolation. The leading WindowPass
  /// asserts the non-monotone B.1 families (boundary/choice domains,
  /// hb closure) the streaming base prefix omits; forSessionBase is
  /// reused for the base and for each extend delta (the passes branch
  /// on EncodingContext::Streaming internally).
  static EncoderPipeline forStreamQuery(const PredictOptions &Opts);

private:
  std::vector<std::unique_ptr<EncodingPass>> Passes;
};

} // namespace encode
} // namespace isopredict

#endif // ISOPREDICT_ENCODE_PIPELINE_H
