//===- Passes.cpp - Composable encoding passes (Appendix B) --------------===//
//
// The constraint generation below follows Appendix B of the paper
// clause-for-clause; section references are inlined at each block.
//
// Deliberate, sat-equivalent engineering deviations from the paper's
// Z3Py encoding (see DESIGN.md §6):
//  - hb is encoded as an exact transitive closure by repeated squaring
//    instead of a recursive fixpoint equality; hb only occurs positively
//    in the isolation constraints, so only spurious models are removed.
//
// Every pass has two construction paths: the default one, bit-identical
// to the pre-refactor monolithic encoder (the golden fixtures pin it),
// and a pruned one gated on EncodingContext::pruning()
// (PredictOptions::PruneFormula) that consults the relevance plan
// (Prune.h) to fold constants and skip declarations/assertions no model
// can distinguish. The pruned path is sat/unsat-equivalent only —
// models and literal counts differ by design.
//
//===----------------------------------------------------------------------===//

#include "encode/Passes.h"

#include "support/StrUtil.h"

using namespace isopredict;
using namespace isopredict::encode;

namespace {

// The Table-1 relaxed-boundary linkage, built in exactly one place so
// the one-shot (FeasibilityPass) and session (BoundaryLinkPass) callers
// cannot drift apart: a boundary at this read extends the cut to the
// end of the read's transaction; a boundary at ∞ leaves everything in.

SmtExpr relaxedCutAtRead(EncodingContext &EC, SessionId S, uint32_t Pos,
                         uint32_t EndPos) {
  SmtContext &Ctx = EC.Ctx;
  return Ctx.mkImplies(
      Ctx.internEq(EC.Boundary[S], Ctx.internIntVal(Pos)),
      Ctx.internEq(EC.Cut[S], Ctx.internIntVal(EndPos)));
}

SmtExpr relaxedCutAtInf(EncodingContext &EC, SessionId S) {
  SmtContext &Ctx = EC.Ctx;
  return Ctx.mkImplies(
      Ctx.internEq(EC.Boundary[S], Ctx.internIntVal(EC.Inf)),
      Ctx.internEq(EC.Cut[S], Ctx.internIntVal(EC.Inf)));
}

/// The pruned realization of the B.3 embeddings' per-pair constraint
/// "(lhs-or-terms) ⇒ co(A) < co(B)". The default path names the ww
/// disjunction with a relation variable and asserts its definition
/// separately; since that variable occurs nowhere else, the pruned path
/// inlines the disjunction into the implication (one variable and one
/// definitional iff avoided per pair) and folds the constant cases: a
/// constant-true \p Hb asserts the order outright, a constant-false
/// \p Hb with no terms asserts nothing.
void assertEmbedding(EncodingContext &EC, SmtExpr Hb,
                     std::vector<SmtExpr> &Terms, SmtExpr Lt) {
  SmtContext &Ctx = EC.Ctx;
  EC.notePrunedVars(1); // The inlined-away ww relation variable.
  if (EC.isTrue(Hb)) {
    EC.Solver.add(Lt);
    EC.notePrunedLits(2);
    return;
  }
  if (EC.isFalse(Hb)) {
    if (Terms.empty()) {
      EC.notePrunedLits(2); // Vacuous implication skipped entirely.
      return;
    }
    EC.notePrunedLits(2); // The hb disjunct and the iff's variable ref.
    EC.Solver.add(Ctx.mkImplies(Ctx.mkOr(Terms), Lt));
    return;
  }
  std::vector<SmtExpr> Lhs;
  Lhs.reserve(Terms.size() + 1);
  Lhs.push_back(Hb);
  Lhs.insert(Lhs.end(), Terms.begin(), Terms.end());
  EC.notePrunedLits(1); // The iff's variable ref.
  EC.Solver.add(Ctx.mkImplies(Ctx.mkOr(Lhs), Lt));
}

/// Streaming declarations: grows the pair tables and declares only the
/// entities of the [DeltaFrom, N) delta. φso is always substituted as
/// constants and φhb pair variables are never declared (WindowPass
/// aliases EC.Hb to the per-query folded closure); sat-equivalent
/// because hb occurs only positively and so is asserted verbatim
/// anyway. The initial encode is the DeltaFrom == 0 special case.
void declareStreaming(EncodingContext &EC) {
  const History &H = EC.H;
  SmtContext &Ctx = EC.Ctx;
  size_t N = EC.N;
  size_t From = EC.DeltaFrom;

  // Inf: beyond every position — refreshed per extend; it is only
  // referenced from query-scoped constraints (WindowPass boundary
  // domains, BoundaryLinkPass) and extraction, never from the base.
  uint32_t MaxPos = 0;
  for (SessionId S = 0; S < H.numSessions(); ++S)
    MaxPos = std::max(MaxPos, H.sessionLastPos(S));
  EC.Inf = static_cast<int64_t>(MaxPos) + 1;

  EC.So.resize(N);
  EC.Wr.resize(N);
  for (TxnId A = 0; A < N; ++A) {
    EC.So[A].resize(N);
    EC.Wr[A].resize(N);
  }
  for (TxnId A = 0; A < N; ++A)
    for (TxnId B = A < From ? From : 0; B < N; ++B) {
      if (A == B)
        continue;
      EC.So[A][B] = Ctx.boolVal(H.so(A, B));
      if (EC.pruning() && !EC.Plan->wrPossible(A, B))
        EC.Wr[A][B] = Ctx.boolVal(false);
      else
        EC.Wr[A][B] = Ctx.boolVar(formatString("wr_%u_%u", A, B));
    }

  // φwr_k: only triples with a delta endpoint can be new — a committed
  // transaction never gains reads or writes.
  for (KeyId K : H.keysRead()) {
    std::vector<TxnId> Readers;
    for (const ReadRef &R : H.readsOf(K))
      if (Readers.empty() || Readers.back() != R.Reader)
        Readers.push_back(R.Reader);
    for (TxnId Writer : H.writersOf(K))
      for (TxnId Reader : Readers)
        if (Writer != Reader && (Writer >= From || Reader >= From))
          EC.WrK.emplace(std::make_tuple(K, Writer, Reader),
                         Ctx.boolVar(formatString("wrk_%u_%u_%u", K, Writer,
                                                  Reader)));
  }

  // φchoice for the delta's reads. Streaming plans carry no fixed
  // choices (the single-writer rule is not extension-monotone).
  for (TxnId T = std::max<size_t>(1, From); T < N; ++T)
    for (const Event &E : H.txn(T).Events)
      if (E.Kind == EventKind::Read) {
        SessionId S = H.txn(T).Session;
        EC.Choice.emplace(std::make_pair(S, E.Pos),
                          Ctx.intVar(formatString("choice_%u_%u", S,
                                                  E.Pos)));
      }

  // Boundary/cut variables for sessions the delta opened (all of them
  // on the initial encode).
  for (SessionId S = static_cast<SessionId>(EC.Boundary.size());
       S < H.numSessions(); ++S) {
    EC.Boundary.push_back(Ctx.intVar(formatString("boundary_%u", S)));
    EC.Cut.push_back(Ctx.intVar(formatString("cut_%u", S)));
  }

  EC.buildIndexes();
}

/// Streaming feasibility: asserts the monotone B.1 families for the
/// [DeltaFrom, N) delta. Monotone means the assertion stays valid no
/// matter what is appended later: the before-boundary implication and
/// the φwr_k/φwr definitions of a read depend only on its own (fixed)
/// transaction, and inclusion implications are per (writer, read) pair
/// — new pairs only add implications. The non-monotone families (the
/// boundary/choice domain disjunctions, which *widen* with new
/// reads/writers, and the hb closure, which can newly connect old
/// pairs through appended transactions) are asserted per query by
/// WindowPass instead.
void feasibilityStreaming(EncodingContext &EC) {
  const History &H = EC.H;
  SmtContext &Ctx = EC.Ctx;
  size_t N = EC.N;
  size_t From = EC.DeltaFrom;

  // φso needs no assertions: the constants are substituted everywhere.

  for (KeyId K : H.keysRead()) {
    const std::vector<TxnId> &Writers = H.writersOf(K);
    for (const ReadRef &R : H.readsOf(K)) {
      SessionId S2 = H.txn(R.Reader).Session;

      // i < φboundary(s2) ⇒ φchoice(s2,i) = φobs(s2,i), once per read.
      if (R.Reader >= From)
        EC.Solver.add(Ctx.mkImplies(EC.beforeBoundary(S2, R.Pos),
                                    EC.choiceIs(S2, R.Pos, R.Writer)));

      // An included read must read an included write — new reads gain
      // the implication for every writer, old reads for new writers.
      for (TxnId W : Writers) {
        if (W == R.Reader || W == InitTxn)
          continue;
        if (W < From && R.Reader < From)
          continue;
        EC.Solver.add(Ctx.mkImplies(
            Ctx.mkAnd(EC.choiceIs(S2, R.Pos, W),
                      EC.eventIncluded(S2, R.Pos)),
            EC.writeIncluded(W, K)));
      }
    }
  }

  // φwr_k definitions for the delta's triples; an old triple's
  // definition is stable (the reader's read positions are fixed).
  for (auto &[KeyTuple, Var] : EC.WrK) {
    auto [K, Writer, Reader] = KeyTuple;
    if (Writer < From && Reader < From)
      continue;
    SessionId S2 = H.txn(Reader).Session;
    std::vector<SmtExpr> Terms;
    for (uint32_t Pos : H.rdPos(Reader, K))
      Terms.push_back(Ctx.mkAnd(EC.choiceIs(S2, Pos, Writer),
                                EC.eventIncluded(S2, Pos)));
    EC.Solver.add(Ctx.mkIff(Var, Ctx.mkOr(Terms)));
  }

  // φwr definitions for pairs with a delta endpoint. An old pair's
  // φwr_k set is fixed, so its definition never needs re-asserting.
  std::vector<std::vector<std::vector<SmtExpr>>> WrTerms(
      N, std::vector<std::vector<SmtExpr>>(N));
  for (auto &[KeyTuple, Var] : EC.WrK) {
    auto [K, Writer, Reader] = KeyTuple;
    (void)K;
    WrTerms[Writer][Reader].push_back(Var);
  }
  for (TxnId A = 0; A < N; ++A)
    for (TxnId B = A < From ? From : 0; B < N; ++B) {
      if (A == B)
        continue;
      if (EC.pruning() && EC.isFalse(EC.Wr[A][B]))
        continue;
      EC.Solver.add(Ctx.mkIff(EC.Wr[A][B], Ctx.mkOr(WrTerms[A][B])));
    }
}

} // namespace

void DeclarePass::run(EncodingContext &EC) {
  if (EC.Streaming)
    return declareStreaming(EC);

  const History &H = EC.H;
  SmtContext &Ctx = EC.Ctx;
  size_t N = EC.N;

  // Inf: beyond every position.
  uint32_t MaxPos = 0;
  for (SessionId S = 0; S < H.numSessions(); ++S)
    MaxPos = std::max(MaxPos, H.sessionLastPos(S));
  EC.Inf = static_cast<int64_t>(MaxPos) + 1;

  if (!EC.pruning()) {
    EC.So = EC.makePairMatrix("so");
    EC.Wr = EC.makePairMatrix("wr");
    EC.Hb = EC.makePairMatrix("hb");
  } else {
    // Pruned: φso is the observed session order (FeasibilityPass
    // asserts it verbatim anyway) — substitute the constants and never
    // declare the pair variables. φwr(A,B) without any φwr_k(A,B) is
    // constant false. φhb is not declared at all: FeasibilityPass
    // aliases it to the constant-folded closure terms.
    const EncodingPlan &Plan = *EC.Plan;
    EC.So.assign(N, std::vector<SmtExpr>(N));
    EC.Wr.assign(N, std::vector<SmtExpr>(N));
    uint64_t PV = 0;
    for (TxnId A = 0; A < N; ++A)
      for (TxnId B = 0; B < N; ++B) {
        if (A == B)
          continue;
        EC.So[A][B] = Ctx.boolVal(H.so(A, B));
        ++PV; // so variable
        ++PV; // hb variable (aliased to the closure instead)
        if (Plan.wrPossible(A, B)) {
          EC.Wr[A][B] = Ctx.boolVar(formatString("wr_%u_%u", A, B));
        } else {
          EC.Wr[A][B] = Ctx.boolVal(false);
          ++PV;
        }
      }
    EC.notePrunedVars(PV);
  }

  // φwr_k for every (key, writer, reader-of-k) combination.
  for (KeyId K : H.keysRead()) {
    std::vector<TxnId> Readers;
    for (const ReadRef &R : H.readsOf(K))
      if (Readers.empty() || Readers.back() != R.Reader)
        Readers.push_back(R.Reader);
    for (TxnId Writer : H.writersOf(K))
      for (TxnId Reader : Readers)
        if (Writer != Reader)
          EC.WrK.emplace(std::make_tuple(K, Writer, Reader),
                         Ctx.boolVar(formatString("wrk_%u_%u_%u", K, Writer,
                                                  Reader)));
  }

  // φchoice for every read position — except fixed single-writer reads
  // under the plan, whose equality atoms are substituted as constants.
  for (TxnId T = 1; T < N; ++T)
    for (const Event &E : H.txn(T).Events)
      if (E.Kind == EventKind::Read) {
        SessionId S = H.txn(T).Session;
        if (EC.pruning() && EC.Plan->fixedChoice(S, E.Pos)) {
          EC.notePrunedVars(1);
          continue;
        }
        EC.Choice.emplace(std::make_pair(S, E.Pos),
                          Ctx.intVar(formatString("choice_%u_%u", S,
                                                  E.Pos)));
      }

  // Session mode always materializes Cut so the declarations do not
  // depend on the query's boundary mode (BoundaryLinkPass asserts the
  // strict Cut == Boundary aliasing per query instead).
  for (SessionId S = 0; S < H.numSessions(); ++S) {
    EC.Boundary.push_back(Ctx.intVar(formatString("boundary_%u", S)));
    if (EC.Relaxed || EC.SessionMode)
      EC.Cut.push_back(Ctx.intVar(formatString("cut_%u", S)));
    else
      EC.Cut.push_back(EC.Boundary.back());
  }

  EC.buildIndexes();
}

void FeasibilityPass::run(EncodingContext &EC) {
  if (EC.Streaming)
    return feasibilityStreaming(EC);

  const History &H = EC.H;
  SmtContext &Ctx = EC.Ctx;
  size_t N = EC.N;
  bool Pruned = EC.pruning();

  // --- Session order (B.1): φso is the observed so, asserted verbatim
  // — or substituted as constants under the plan (nothing to assert).
  if (!Pruned) {
    for (TxnId A = 0; A < N; ++A)
      for (TxnId B = 0; B < N; ++B) {
        if (A == B)
          continue;
        EC.Solver.add(H.so(A, B) ? EC.So[A][B] : Ctx.mkNot(EC.So[A][B]));
      }
  } else {
    EC.notePrunedLits(static_cast<uint64_t>(N) * (N - 1));
  }

  // --- Boundary domain: a read position of the session, or ∞; for the
  // relaxed boundary the cut is constrained to the end of the boundary
  // read's transaction (Table 1). In session mode the boundary↔cut
  // linkage is query-dependent and asserted by BoundaryLinkPass inside
  // each query's solver scope.
  bool LinkCut = EC.Relaxed && !EC.SessionMode;
  for (SessionId S = 0; S < H.numSessions(); ++S) {
    std::vector<SmtExpr> Options;
    for (TxnId T : H.sessionTxns(S)) {
      const Transaction &Txn = H.txn(T);
      for (const Event &E : Txn.Events) {
        if (E.Kind != EventKind::Read)
          continue;
        Options.push_back(
            Ctx.internEq(EC.Boundary[S], Ctx.internIntVal(E.Pos)));
        if (LinkCut)
          EC.Solver.add(relaxedCutAtRead(EC, S, E.Pos, Txn.EndPos));
      }
    }
    Options.push_back(
        Ctx.internEq(EC.Boundary[S], Ctx.internIntVal(EC.Inf)));
    EC.Solver.add(Ctx.mkOr(Options));
    if (LinkCut)
      EC.Solver.add(relaxedCutAtInf(EC, S));
  }

  // --- Read choices: every read's choice ranges over the writers of
  // its key, and reads strictly before the boundary keep the observed
  // writer (B.1). Fixed single-writer reads (the plan) need neither:
  // the choice is the observed writer by construction, and only the
  // inclusion constraint survives (with the choice conjunct folded).
  for (KeyId K : H.keysRead()) {
    const std::vector<TxnId> &Writers = H.writersOf(K);
    for (const ReadRef &R : H.readsOf(K)) {
      SessionId S2 = H.txn(R.Reader).Session;

      if (Pruned && EC.Plan->fixedChoice(S2, R.Pos)) {
        // t0 is always a feasible writer, so a singleton domain can
        // only be {t0} (and the observed writer is t0): the domain
        // disjunction and the before-boundary implication are
        // trivially true, and the inclusion constraint ranges over no
        // foreign writer — nothing to assert at all.
        assert(R.Writer == InitTxn && "fixed read with a non-t0 writer");
        EC.notePrunedLits(3);
        continue;
      }

      std::vector<SmtExpr> Domain;
      for (TxnId W : Writers)
        if (W != R.Reader)
          Domain.push_back(EC.choiceIs(S2, R.Pos, W));
      EC.Solver.add(Ctx.mkOr(Domain)); // Domain (B.1).

      // i < φboundary(s2) ⇒ φchoice(s2,i) = φobs(s2,i).
      EC.Solver.add(Ctx.mkImplies(EC.beforeBoundary(S2, R.Pos),
                                  EC.choiceIs(S2, R.Pos, R.Writer)));

      // An included read must read an included write:
      // φchoice = t1 ∧ i ≤ cut(s2) ⇒ wrpos_k(t1) < cut(s1).
      for (TxnId W : Writers) {
        if (W == R.Reader || W == InitTxn)
          continue;
        EC.Solver.add(Ctx.mkImplies(
            Ctx.mkAnd(EC.choiceIs(S2, R.Pos, W),
                      EC.eventIncluded(S2, R.Pos)),
            EC.writeIncluded(W, K)));
      }
    }
  }

  // --- φwr_k definition (B.1): true iff some included read of t2 to k
  // chose t1. Fixed reads fold the (constant-true) choice conjunct.
  for (auto &[KeyTuple, Var] : EC.WrK) {
    auto [K, Writer, Reader] = KeyTuple;
    SessionId S2 = H.txn(Reader).Session;
    std::vector<SmtExpr> Terms;
    for (uint32_t Pos : H.rdPos(Reader, K)) {
      SmtExpr ChoiceAtom = EC.choiceIs(S2, Pos, Writer);
      SmtExpr Included = EC.eventIncluded(S2, Pos);
      if (Pruned && EC.isTrue(ChoiceAtom)) {
        EC.notePrunedLits(1);
        Terms.push_back(Included);
      } else if (Pruned && EC.isFalse(ChoiceAtom)) {
        EC.notePrunedLits(2);
      } else {
        Terms.push_back(Ctx.mkAnd(ChoiceAtom, Included));
      }
    }
    EC.Solver.add(Ctx.mkIff(Var, Ctx.mkOr(Terms)));
  }

  // --- φwr(t1,t2) = \/_k φwr_k(t1,t2). One sweep over the (ordered)
  // φwr_k table groups the disjuncts per pair in ascending-key order —
  // the same order the per-pair keysRead probe produced. Pairs without
  // any φwr_k are constant false under the plan: nothing to define.
  std::vector<std::vector<std::vector<SmtExpr>>> WrTerms(
      N, std::vector<std::vector<SmtExpr>>(N));
  for (auto &[KeyTuple, Var] : EC.WrK) {
    auto [K, Writer, Reader] = KeyTuple;
    (void)K;
    WrTerms[Writer][Reader].push_back(Var);
  }
  for (TxnId A = 0; A < N; ++A)
    for (TxnId B = 0; B < N; ++B) {
      if (A == B)
        continue;
      if (Pruned && EC.isFalse(EC.Wr[A][B])) {
        EC.notePrunedLits(2);
        continue;
      }
      EC.Solver.add(Ctx.mkIff(EC.Wr[A][B], Ctx.mkOr(WrTerms[A][B])));
    }

  // --- φhb: transitive closure of so ∪ wr (§4.3), encoded by repeated
  // squaring so hb is the *exact* least fixpoint. The paper's recursive
  // equality also admits non-minimal fixpoints; since hb only appears
  // positively in the isolation constraints, the two encodings are
  // sat-equivalent, but the exact closure removes a whole dimension of
  // spurious models the solver would otherwise have to refute. Under
  // the plan the base constant-folds (so-ordered pairs are true,
  // skeleton-unreachable pairs false), the closure layers fold through
  // (EC.closure), and φhb aliases the closure terms directly instead
  // of re-naming them through declared pair variables.
  PairMatrix Base(N, std::vector<SmtExpr>(N));
  for (TxnId A = 0; A < N; ++A)
    for (TxnId B = 0; B < N; ++B) {
      if (A == B)
        continue;
      if (!Pruned) {
        Base[A][B] = Ctx.mkOr(EC.So[A][B], EC.Wr[A][B]);
      } else if (EC.isTrue(EC.So[A][B])) {
        Base[A][B] = EC.So[A][B];
        EC.notePrunedLits(1); // The wr disjunct.
      } else if (EC.isFalse(EC.Wr[A][B])) {
        Base[A][B] = EC.Wr[A][B];
        EC.notePrunedLits(2);
      } else {
        Base[A][B] = EC.Wr[A][B];
        EC.notePrunedLits(1); // The so disjunct.
      }
    }
  PairMatrix Closed = EC.closure(Base, "hb");
  if (!Pruned) {
    for (TxnId A = 0; A < N; ++A)
      for (TxnId B = 0; B < N; ++B)
        if (A != B)
          EC.Solver.add(Ctx.mkIff(EC.Hb[A][B], Closed[A][B]));
  } else {
    EC.Hb = std::move(Closed);
    EC.notePrunedLits(2 * static_cast<uint64_t>(N) * (N - 1));
#ifndef NDEBUG
    // The folded closure must realize exactly the plan's skeleton
    // reachability: a pair folds to constant false iff it is
    // unreachable in so ∪ wr-possible (EncodingPlan::HbReach is the
    // specification of the fold).
    for (TxnId A = 0; A < N; ++A)
      for (TxnId B = 0; B < N; ++B)
        if (A != B)
          assert(!EC.isFalse(EC.Hb[A][B]) == EC.Plan->hbPossible(A, B) &&
                 "hb closure fold disagrees with the relevance plan");
#endif
  }
}

void WindowPass::run(EncodingContext &EC) {
  const History &H = EC.H;
  SmtContext &Ctx = EC.Ctx;
  size_t N = EC.N;
  assert(EC.Streaming && "WindowPass is streaming-mode only");

  // --- Boundary domain over the session's *current* reads, closed by
  // the *current* ∞. Both widen with every extend, so the disjunction
  // cannot live in the base prefix.
  for (SessionId S = 0; S < H.numSessions(); ++S) {
    std::vector<SmtExpr> Options;
    for (TxnId T : H.sessionTxns(S))
      for (const Event &E : H.txn(T).Events)
        if (E.Kind == EventKind::Read)
          Options.push_back(
              Ctx.internEq(EC.Boundary[S], Ctx.internIntVal(E.Pos)));
    Options.push_back(
        Ctx.internEq(EC.Boundary[S], Ctx.internIntVal(EC.Inf)));
    EC.Solver.add(Ctx.mkOr(Options));
  }

  // --- Choice domains over the keys' *current* writer sets. A domain
  // asserted at extend time would wrongly forbid writers appended
  // later.
  for (KeyId K : H.keysRead()) {
    const std::vector<TxnId> &Writers = H.writersOf(K);
    for (const ReadRef &R : H.readsOf(K)) {
      SessionId S2 = H.txn(R.Reader).Session;
      std::vector<SmtExpr> Domain;
      for (TxnId W : Writers)
        if (W != R.Reader)
          Domain.push_back(EC.choiceIs(S2, R.Pos, W));
      EC.Solver.add(Ctx.mkOr(Domain));
    }
  }

  // --- φhb: the closure is not monotone — an appended transaction can
  // hb-connect two already-encoded ones — so it is re-derived in every
  // query scope over the current so/wr tables. Always folded: φso is
  // constant in streaming mode (and φwr constant false off the plan's
  // skeleton when pruning), so the closure base is one term per pair
  // and EC.Hb aliases the layer terms with no declared hb variables at
  // all. hb occurs only positively downstream, so aliasing the exact
  // least fixpoint is sat-equivalent to the declared-iff encoding.
  // Layer variable names are reused across query scopes; each scope
  // re-asserts their (possibly wider) definitions and pops them with
  // the query, so the reuse is benign.
  PairMatrix Base(N, std::vector<SmtExpr>(N));
  for (TxnId A = 0; A < N; ++A)
    for (TxnId B = 0; B < N; ++B) {
      if (A == B)
        continue;
      Base[A][B] = EC.isTrue(EC.So[A][B]) ? EC.So[A][B] : EC.Wr[A][B];
    }
  EC.Hb = defineClosure(Ctx, EC.Solver, Base, "hb", /*Fold=*/true,
                        &EC.PrunedVars, &EC.PrunedLits);
#ifndef NDEBUG
  if (EC.pruning())
    for (TxnId A = 0; A < N; ++A)
      for (TxnId B = 0; B < N; ++B)
        if (A != B)
          assert(!EC.isFalse(EC.Hb[A][B]) == EC.Plan->hbPossible(A, B) &&
                 "hb closure fold disagrees with the relevance plan");
#endif
}

void BoundaryLinkPass::run(EncodingContext &EC) {
  const History &H = EC.H;
  SmtContext &Ctx = EC.Ctx;
  assert(EC.SessionMode && "BoundaryLinkPass is session-mode only");

  if (!EC.Relaxed) {
    // Strict boundary: the cut *is* the boundary read. One-shot
    // encodings alias the terms; here the materialized cut variable is
    // pinned instead, which is sat-equivalent in every constraint that
    // compares against it.
    for (SessionId S = 0; S < H.numSessions(); ++S)
      EC.Solver.add(Ctx.internEq(EC.Cut[S], EC.Boundary[S]));
    return;
  }

  // Relaxed boundary: the cut extends to the end of the boundary read's
  // transaction (Table 1) — the same implications FeasibilityPass emits
  // inline for one-shot relaxed encodings. The boundary atoms already
  // exist in the intern tables from the shared prefix, so re-entering
  // this pass per query only rebuilds the implication shells.
  for (SessionId S = 0; S < H.numSessions(); ++S) {
    for (TxnId T : H.sessionTxns(S)) {
      const Transaction &Txn = H.txn(T);
      for (const Event &E : Txn.Events) {
        if (E.Kind != EventKind::Read)
          continue;
        EC.Solver.add(relaxedCutAtRead(EC, S, E.Pos, Txn.EndPos));
      }
    }
    EC.Solver.add(relaxedCutAtInf(EC, S));
  }
}

void ExactStrictPass::run(EncodingContext &EC) {
  SmtContext &Ctx = EC.Ctx;
  size_t N = EC.N;
  bool Pruned = EC.pruning();

  // B.2.1: ∀φco. ¬IsSerializable(φco). The bound "function" is one
  // integer per transaction since T is finite.
  std::vector<SmtExpr> CoBound;
  for (TxnId T = 0; T < N; ++T)
    CoBound.push_back(Ctx.intVar(formatString("coq_%u", T)));

  std::vector<SmtExpr> Conj;
  Conj.push_back(Ctx.mkDistinct(CoBound));
  for (TxnId A = 0; A < N; ++A)
    for (TxnId B = 0; B < N; ++B) {
      if (A == B)
        continue;
      SmtExpr Lt = Ctx.mkLt(CoBound[A], CoBound[B]);
      if (Pruned && EC.isTrue(EC.So[A][B])) {
        // Observed so orders the pair unconditionally: the implication
        // collapses to its conclusion.
        EC.notePrunedLits(2);
        Conj.push_back(Lt);
        continue;
      }
      // Arbitration(t1,t2) = \/ φwr_k(t2,t3) ∧ co(t1) < co(t3)
      //                        ∧ wrpos_k(t1) < boundary(s1).
      std::vector<SmtExpr> Arb;
      for (const EncodingContext::JustEntry &E : EC.WwByWriter[B]) {
        if (E.Other == A || !EC.writes(A, E.K))
          continue;
        if (Pruned) {
          std::vector<SmtExpr> Parts{
              E.Wrk, Ctx.mkLt(CoBound[A], CoBound[E.Other])};
          SmtExpr WInc = EC.writeIncluded(A, E.K);
          if (EC.isTrue(WInc))
            EC.notePrunedLits(1);
          else
            Parts.push_back(WInc);
          Arb.push_back(Ctx.mkAnd(Parts));
          continue;
        }
        Arb.push_back(Ctx.mkAnd({E.Wrk,
                                 Ctx.mkLt(CoBound[A], CoBound[E.Other]),
                                 EC.writeIncluded(A, E.K)}));
      }
      if (!Pruned) {
        SmtExpr Ordered =
            Ctx.mkOr({EC.So[A][B], EC.Wr[A][B], Ctx.mkOr(Arb)});
        Conj.push_back(Ctx.mkImplies(Ordered, Lt));
        continue;
      }
      // Pruned: so is constant false here; fold it and a constant-
      // false wr out of the disjunction, and skip the implication
      // entirely when nothing can order the pair.
      std::vector<SmtExpr> Parts;
      EC.notePrunedLits(1); // so disjunct
      if (EC.isFalse(EC.Wr[A][B]))
        EC.notePrunedLits(1);
      else
        Parts.push_back(EC.Wr[A][B]);
      if (!Arb.empty())
        Parts.push_back(Ctx.mkOr(Arb));
      if (Parts.empty()) {
        EC.notePrunedLits(1); // Vacuous implication.
        continue;
      }
      Conj.push_back(Ctx.mkImplies(Ctx.mkOr(Parts), Lt));
    }
  EC.Solver.add(Ctx.mkForall(CoBound, Ctx.mkNot(Ctx.mkAnd(Conj))));
}

void ApproxRankPass::run(EncodingContext &EC) {
  SmtContext &Ctx = EC.Ctx;
  size_t N = EC.N;

  if (EC.pruning())
    return runPruned(EC);

  // B.2.2 verbatim: free relation variables with integer rank guards
  // that forbid self-justifying derivations (§4.2.2, Fig. 6).
  PairMatrix Ww = EC.makePairMatrix("ww");
  PairMatrix Rw = EC.makePairMatrix("rw");
  EC.Pco = EC.makePairMatrix("pco");
  EC.Rank = EC.makePairMatrix("rank", /*IsInt=*/true);

  // Ranks only need to order derivations, so N² distinct values always
  // suffice; bounding the domain prunes the unsat search.
  SmtExpr RankMax = Ctx.internIntVal(static_cast<int64_t>(N) * N);
  SmtExpr Zero = Ctx.internIntVal(0);
  for (TxnId A = 0; A < N; ++A)
    for (TxnId B = 0; B < N; ++B) {
      if (A == B)
        continue;
      EC.Solver.add(Ctx.mkLe(Zero, EC.Rank[A][B]));
      EC.Solver.add(Ctx.mkLe(EC.Rank[A][B], RankMax));
    }

  // The rank guards reuse a small set of comparison atoms heavily: for a
  // fixed A, every justification of (A,B) guards with
  // Rank[A][t3] < Rank[A][B] or Rank[t3][B] < Rank[A][B], and the
  // transitivity terms use the same two shapes. Dense per-A tables make
  // each reuse a plain array load (the generic interning table was
  // measurably slower than Z3's own hash-consing here).
  PairMatrix LtPrefix(N, std::vector<SmtExpr>(N)); // Rank[A][M] < Rank[A][B]
  PairMatrix LtSuffix(N, std::vector<SmtExpr>(N)); // Rank[M][B] < Rank[A][B]
  std::vector<SmtExpr> WwTerms, RwTerms, PcoTerms;
  for (TxnId A = 0; A < N; ++A) {
    for (TxnId M = 0; M < N; ++M) {
      std::fill(LtPrefix[M].begin(), LtPrefix[M].end(), SmtExpr{});
      std::fill(LtSuffix[M].begin(), LtSuffix[M].end(), SmtExpr{});
    }
    auto RankLt = [&](TxnId GA, TxnId GB, TxnId B) {
      // Rank[GA][GB] < Rank[A][B], with (GA,GB) = (A,t3) or (t3,B).
      SmtExpr &Slot = GA == A ? LtPrefix[GB][B] : LtSuffix[GA][B];
      if (!Slot.valid())
        Slot = Ctx.mkLt(EC.Rank[GA][GB], EC.Rank[A][B]);
      return Slot;
    };

    for (TxnId B = 0; B < N; ++B) {
      if (A == B)
        continue;

      WwTerms.clear();
      for (EncodingContext::Justification &J : EC.wwJust(A, B))
        WwTerms.push_back(Ctx.mkAnd(J.Cond, RankLt(J.RankA, J.RankB, B)));
      // One-directional definitional implication: ww/rw/pco occur only
      // positively (in the pco cycle constraint), so requiring every
      // *asserted* edge to be justified is sat-equivalent to the paper's
      // "=" form — by rank induction, true edges lie in the least
      // fixpoint — and leaves the solver free to ignore edges it does
      // not need.
      EC.Solver.add(Ctx.mkIff(Ww[A][B], Ctx.mkOr(WwTerms)));

      RwTerms.clear();
      for (EncodingContext::Justification &J : EC.rwJust(A, B))
        RwTerms.push_back(Ctx.mkAnd(J.Cond, RankLt(J.RankA, J.RankB, B)));
      EC.Solver.add(Ctx.mkIff(Rw[A][B], Ctx.mkOr(RwTerms)));

      // φpco(A,B) = so ∨ wr ∨ ww ∨ rw ∨ rank-guarded transitivity.
      PcoTerms.clear();
      PcoTerms.push_back(EC.So[A][B]);
      PcoTerms.push_back(EC.Wr[A][B]);
      PcoTerms.push_back(Ww[A][B]);
      PcoTerms.push_back(Rw[A][B]);
      for (TxnId M = 0; M < N; ++M) {
        if (M == A || M == B)
          continue;
        PcoTerms.push_back(Ctx.mkAnd({EC.Pco[A][M], EC.Pco[M][B],
                                      RankLt(A, M, B), RankLt(M, B, B)}));
      }
      EC.Solver.add(Ctx.mkIff(EC.Pco[A][B], Ctx.mkOr(PcoTerms)));
    }
  }

  EC.addCycleConstraint(EC.Pco);
}

void ApproxRankPass::runPruned(EncodingContext &EC) {
  SmtContext &Ctx = EC.Ctx;
  size_t N = EC.N;
  const EncodingPlan &Plan = *EC.Plan;

  // Pruned B.2.2. Observed-so pairs are pco unconditionally (pco ⊇ so
  // and so is already transitively closed), so φpco(A,B) is substituted
  // by constant true and its entire definitional block — the ww/rw
  // relation variables, their justification disjunctions, the rank
  // variable and its bounds — is never built. Rank guards exist to
  // forbid self-justifying derivations; a derivation consuming a
  // constant-true (so-grounded) pco edge cannot be self-justifying, so
  // its guard is dropped (Justification::Grounded), which in turn
  // leaves so-pair rank variables entirely unreferenced.
  EC.Pco.assign(N, std::vector<SmtExpr>(N));
  EC.Rank.assign(N, std::vector<SmtExpr>(N));
  PairMatrix Ww(N, std::vector<SmtExpr>(N));
  PairMatrix Rw(N, std::vector<SmtExpr>(N));
  SmtExpr True = Ctx.boolVal(true);
  SmtExpr False = Ctx.boolVal(false);
  uint64_t SoPairs = 0;
  for (TxnId A = 0; A < N; ++A)
    for (TxnId B = 0; B < N; ++B) {
      if (A == B)
        continue;
      if (Plan.soPair(A, B)) {
        EC.Pco[A][B] = True;
        ++SoPairs;
        continue;
      }
      EC.Pco[A][B] = Ctx.boolVar(formatString("pco_%u_%u", A, B));
      EC.Rank[A][B] = Ctx.intVar(formatString("rank_%u_%u", A, B));
    }
  // Per so pair: pco, rank, ww, and rw variables never declared; the
  // rank bounds and the four definitional iffs never asserted (the
  // literal tally is the statically-known part only — the justification
  // disjunctions we never enumerate are not counted).
  EC.notePrunedVars(4 * SoPairs);
  EC.notePrunedLits(9 * SoPairs);

  SmtExpr RankMax = Ctx.internIntVal(static_cast<int64_t>(N) * N);
  SmtExpr Zero = Ctx.internIntVal(0);
  for (TxnId A = 0; A < N; ++A)
    for (TxnId B = 0; B < N; ++B) {
      if (A == B || !EC.Rank[A][B].valid())
        continue;
      EC.Solver.add(Ctx.mkLe(Zero, EC.Rank[A][B]));
      EC.Solver.add(Ctx.mkLe(EC.Rank[A][B], RankMax));
    }

  PairMatrix LtPrefix(N, std::vector<SmtExpr>(N));
  PairMatrix LtSuffix(N, std::vector<SmtExpr>(N));
  std::vector<SmtExpr> WwTerms, RwTerms, PcoTerms;
  for (TxnId A = 0; A < N; ++A) {
    for (TxnId M = 0; M < N; ++M) {
      std::fill(LtPrefix[M].begin(), LtPrefix[M].end(), SmtExpr{});
      std::fill(LtSuffix[M].begin(), LtSuffix[M].end(), SmtExpr{});
    }
    auto RankLt = [&](TxnId GA, TxnId GB, TxnId B) {
      assert(EC.Rank[GA][GB].valid() && EC.Rank[A][B].valid() &&
             "rank guard over a pruned rank variable");
      SmtExpr &Slot = GA == A ? LtPrefix[GB][B] : LtSuffix[GA][B];
      if (!Slot.valid())
        Slot = Ctx.mkLt(EC.Rank[GA][GB], EC.Rank[A][B]);
      return Slot;
    };

    for (TxnId B = 0; B < N; ++B) {
      if (A == B || Plan.soPair(A, B))
        continue;

      // Grounded justifications (constant-true pco edge) carry no rank
      // guard; see wwJust/rwJust for the conjunct folding. The shed
      // guard is tallied here, not in wwJust/rwJust, because only the
      // rank encoding has guards to shed.
      WwTerms.clear();
      for (EncodingContext::Justification &J : EC.wwJust(A, B)) {
        if (J.Grounded) {
          EC.notePrunedLits(1);
          WwTerms.push_back(J.Cond);
          continue;
        }
        WwTerms.push_back(Ctx.mkAnd(J.Cond, RankLt(J.RankA, J.RankB, B)));
      }
      if (WwTerms.empty()) {
        Ww[A][B] = False;
        EC.notePrunedVars(1);
        EC.notePrunedLits(1);
      } else {
        Ww[A][B] = Ctx.boolVar(formatString("ww_%u_%u", A, B));
        EC.Solver.add(Ctx.mkIff(Ww[A][B], Ctx.mkOr(WwTerms)));
      }

      RwTerms.clear();
      for (EncodingContext::Justification &J : EC.rwJust(A, B)) {
        if (J.Grounded) {
          EC.notePrunedLits(1);
          RwTerms.push_back(J.Cond);
          continue;
        }
        RwTerms.push_back(Ctx.mkAnd(J.Cond, RankLt(J.RankA, J.RankB, B)));
      }
      if (RwTerms.empty()) {
        Rw[A][B] = False;
        EC.notePrunedVars(1);
        EC.notePrunedLits(1);
      } else {
        Rw[A][B] = Ctx.boolVar(formatString("rw_%u_%u", A, B));
        EC.Solver.add(Ctx.mkIff(Rw[A][B], Ctx.mkOr(RwTerms)));
      }

      // φpco(A,B) = so ∨ wr ∨ ww ∨ rw ∨ rank-guarded transitivity,
      // with the constant disjuncts folded (so is false here; wr/ww/rw
      // may be constant false) and guards dropped on constant-true
      // transitivity conjuncts.
      PcoTerms.clear();
      EC.notePrunedLits(1); // so disjunct (constant false)
      if (EC.isFalse(EC.Wr[A][B]))
        EC.notePrunedLits(1);
      else
        PcoTerms.push_back(EC.Wr[A][B]);
      if (!EC.isFalse(Ww[A][B]))
        PcoTerms.push_back(Ww[A][B]);
      if (!EC.isFalse(Rw[A][B]))
        PcoTerms.push_back(Rw[A][B]);
      for (TxnId M = 0; M < N; ++M) {
        if (M == A || M == B)
          continue;
        SmtExpr Pam = EC.Pco[A][M], Pmb = EC.Pco[M][B];
        bool PamTrue = EC.isTrue(Pam), PmbTrue = EC.isTrue(Pmb);
        assert(!(PamTrue && PmbTrue) &&
               "so-transitive midpoint on a non-so pair");
        std::vector<SmtExpr> Parts;
        if (PamTrue)
          EC.notePrunedLits(2); // The conjunct and its guard.
        else
          Parts.push_back(Pam);
        if (PmbTrue)
          EC.notePrunedLits(2);
        else
          Parts.push_back(Pmb);
        if (!PamTrue)
          Parts.push_back(RankLt(A, M, B));
        if (!PmbTrue)
          Parts.push_back(RankLt(M, B, B));
        PcoTerms.push_back(Ctx.mkAnd(Parts));
      }
      EC.Solver.add(Ctx.mkIff(EC.Pco[A][B], Ctx.mkOr(PcoTerms)));
    }
  }

  EC.addCycleConstraint(EC.Pco);
}

void CausalPass::run(EncodingContext &EC) {
  SmtContext &Ctx = EC.Ctx;
  size_t N = EC.N;
  bool Pruned = EC.pruning();

  // B.3.1: (hb ∪ wwcausal) embeds in a total order φcocausal. The
  // pruned path inlines the definitional wwcausal variables into the
  // per-pair implication (assertEmbedding) and folds constant hb.
  PairMatrix WwC;
  if (!Pruned)
    WwC = EC.makePairMatrix("wwc");
  std::vector<SmtExpr> Co;
  for (TxnId T = 0; T < N; ++T)
    Co.push_back(Ctx.intVar(formatString("cocausal_%u", T)));

  for (TxnId A = 0; A < N; ++A)
    for (TxnId B = 0; B < N; ++B) {
      if (A == B)
        continue;
      if (Pruned && EC.isTrue(EC.Hb[A][B])) {
        // hb forces the order outright; the ww terms are subsumed.
        std::vector<SmtExpr> None;
        assertEmbedding(EC, EC.Hb[A][B], None, Ctx.mkLt(Co[A], Co[B]));
        continue;
      }
      std::vector<SmtExpr> Terms;
      for (const EncodingContext::JustEntry &E : EC.WwByWriter[B]) {
        if (E.Other == A || !EC.writes(A, E.K))
          continue;
        if (!Pruned) {
          Terms.push_back(Ctx.mkAnd({E.Wrk, EC.Hb[A][E.Other],
                                     EC.writeIncluded(A, E.K)}));
          continue;
        }
        SmtExpr HbA3 = EC.Hb[A][E.Other];
        if (EC.isFalse(HbA3)) {
          EC.notePrunedLits(3);
          continue;
        }
        std::vector<SmtExpr> Parts{E.Wrk};
        if (EC.isTrue(HbA3))
          EC.notePrunedLits(1);
        else
          Parts.push_back(HbA3);
        SmtExpr WInc = EC.writeIncluded(A, E.K);
        if (EC.isTrue(WInc))
          EC.notePrunedLits(1);
        else
          Parts.push_back(WInc);
        Terms.push_back(Ctx.mkAnd(Parts));
      }
      if (!Pruned) {
        EC.Solver.add(Ctx.mkIff(WwC[A][B], Ctx.mkOr(Terms)));
        EC.Solver.add(Ctx.mkImplies(Ctx.mkOr(EC.Hb[A][B], WwC[A][B]),
                                    Ctx.mkLt(Co[A], Co[B])));
        continue;
      }
      assertEmbedding(EC, EC.Hb[A][B], Terms, Ctx.mkLt(Co[A], Co[B]));
    }
}

void ReadAtomicPass::run(EncodingContext &EC) {
  SmtContext &Ctx = EC.Ctx;
  size_t N = EC.N;
  bool Pruned = EC.pruning();

  // Read atomic: like B.3.1 but with one-step visibility (so ∪ wr)
  // instead of the hb closure — t3 must not read k from t2 while t1's
  // write to k is directly visible to it. This is the "repeated reads"
  // extension the paper marks as straightforward (§8).
  PairMatrix WwRa;
  if (!Pruned)
    WwRa = EC.makePairMatrix("wwra");
  std::vector<SmtExpr> Co;
  for (TxnId T = 0; T < N; ++T)
    Co.push_back(Ctx.intVar(formatString("cora_%u", T)));

  for (TxnId A = 0; A < N; ++A)
    for (TxnId B = 0; B < N; ++B) {
      if (A == B)
        continue;
      if (Pruned && EC.isTrue(EC.Hb[A][B])) {
        std::vector<SmtExpr> None;
        assertEmbedding(EC, EC.Hb[A][B], None, Ctx.mkLt(Co[A], Co[B]));
        continue;
      }
      std::vector<SmtExpr> Terms;
      for (const EncodingContext::JustEntry &E : EC.WwByWriter[B]) {
        if (E.Other == A || !EC.writes(A, E.K))
          continue;
        if (!Pruned) {
          Terms.push_back(
              Ctx.mkAnd({E.Wrk,
                         Ctx.mkOr(EC.So[A][E.Other], EC.Wr[A][E.Other]),
                         EC.writeIncluded(A, E.K)}));
          continue;
        }
        // One-step visibility folds through the so/wr constants: a
        // constant-true so edge drops the conjunct, constant-false so
        // with constant-false wr kills the term.
        std::vector<SmtExpr> Parts{E.Wrk};
        if (EC.isTrue(EC.So[A][E.Other])) {
          EC.notePrunedLits(2);
        } else if (EC.isFalse(EC.Wr[A][E.Other])) {
          EC.notePrunedLits(4);
          continue;
        } else {
          EC.notePrunedLits(1); // so disjunct
          Parts.push_back(EC.Wr[A][E.Other]);
        }
        SmtExpr WInc = EC.writeIncluded(A, E.K);
        if (EC.isTrue(WInc))
          EC.notePrunedLits(1);
        else
          Parts.push_back(WInc);
        Terms.push_back(Ctx.mkAnd(Parts));
      }
      if (!Pruned) {
        EC.Solver.add(Ctx.mkIff(WwRa[A][B], Ctx.mkOr(Terms)));
        EC.Solver.add(Ctx.mkImplies(Ctx.mkOr(EC.Hb[A][B], WwRa[A][B]),
                                    Ctx.mkLt(Co[A], Co[B])));
        continue;
      }
      assertEmbedding(EC, EC.Hb[A][B], Terms, Ctx.mkLt(Co[A], Co[B]));
    }
}

void ReadCommittedPass::run(EncodingContext &EC) {
  const History &H = EC.H;
  SmtContext &Ctx = EC.Ctx;
  size_t N = EC.N;
  bool Pruned = EC.pruning();

  // B.3.2: (hb ∪ wwrc) embeds in a total order φcorc.
  PairMatrix WwRc;
  if (!Pruned)
    WwRc = EC.makePairMatrix("wwrc");
  std::vector<SmtExpr> Co;
  for (TxnId T = 0; T < N; ++T)
    Co.push_back(Ctx.intVar(formatString("corc_%u", T)));

  for (TxnId A = 0; A < N; ++A)
    for (TxnId B = 0; B < N; ++B) {
      if (A == B)
        continue;
      if (Pruned && EC.isTrue(EC.Hb[A][B])) {
        std::vector<SmtExpr> None;
        assertEmbedding(EC, EC.Hb[A][B], None, Ctx.mkLt(Co[A], Co[B]));
        continue;
      }
      std::vector<SmtExpr> Terms;
      for (TxnId T3 = 1; T3 < N; ++T3) {
        if (T3 == A || T3 == B)
          continue;
        const Transaction &Reader = H.txn(T3);
        SessionId S3 = Reader.Session;
        // β at position i reads any key A writes; α at position j > i
        // reads a key both A and B write, from B.
        for (size_t AJ = 0; AJ < Reader.Events.size(); ++AJ) {
          const Event &Alpha = Reader.Events[AJ];
          if (Alpha.Kind != EventKind::Read)
            continue;
          KeyId K = Alpha.Key;
          if (!EC.writes(A, K) || !EC.writes(B, K))
            continue;
          for (size_t BI = 0; BI < AJ; ++BI) {
            const Event &Beta = Reader.Events[BI];
            if (Beta.Kind != EventKind::Read)
              continue;
            if (!EC.writes(A, Beta.Key))
              continue;
            if (!Pruned) {
              Terms.push_back(
                  Ctx.mkAnd({EC.choiceIs(S3, Beta.Pos, A),
                             EC.choiceIs(S3, Alpha.Pos, B),
                             EC.eventIncluded(S3, Alpha.Pos)}));
              continue;
            }
            // Fixed reads make the choice atoms constants: fold true
            // conjuncts, drop terms with a false one.
            SmtExpr CBeta = EC.choiceIs(S3, Beta.Pos, A);
            SmtExpr CAlpha = EC.choiceIs(S3, Alpha.Pos, B);
            if (EC.isFalse(CBeta) || EC.isFalse(CAlpha)) {
              EC.notePrunedLits(3);
              continue;
            }
            std::vector<SmtExpr> Parts;
            if (EC.isTrue(CBeta))
              EC.notePrunedLits(1);
            else
              Parts.push_back(CBeta);
            if (EC.isTrue(CAlpha))
              EC.notePrunedLits(1);
            else
              Parts.push_back(CAlpha);
            Parts.push_back(EC.eventIncluded(S3, Alpha.Pos));
            Terms.push_back(Ctx.mkAnd(Parts));
          }
        }
      }
      if (!Pruned) {
        EC.Solver.add(Ctx.mkIff(WwRc[A][B], Ctx.mkOr(Terms)));
        EC.Solver.add(Ctx.mkImplies(Ctx.mkOr(EC.Hb[A][B], WwRc[A][B]),
                                    Ctx.mkLt(Co[A], Co[B])));
        continue;
      }
      assertEmbedding(EC, EC.Hb[A][B], Terms, Ctx.mkLt(Co[A], Co[B]));
    }
}
