#include "testing/program_gen.h"

#include <algorithm>
#include <set>

#include "base/strings.h"

namespace ldl {
namespace testing {

const char* EdbShapeToString(EdbShape shape) {
  switch (shape) {
    case EdbShape::kChain:
      return "chain";
    case EdbShape::kTree:
      return "tree";
    case EdbShape::kCycle:
      return "cycle";
    case EdbShape::kRandom:
      return "random";
    case EdbShape::kMixed:
      return "mixed";
  }
  return "?";
}

bool ParseEdbShape(std::string_view text, EdbShape* out) {
  for (EdbShape s : {EdbShape::kChain, EdbShape::kTree, EdbShape::kCycle,
                     EdbShape::kRandom, EdbShape::kMixed}) {
    if (text == EdbShapeToString(s)) {
      *out = s;
      return true;
    }
  }
  return false;
}

const char* RecursionKindToString(RecursionKind kind) {
  switch (kind) {
    case RecursionKind::kLinear:
      return "linear";
    case RecursionKind::kNonlinear:
      return "nonlinear";
    case RecursionKind::kMutual:
      return "mutual";
    case RecursionKind::kSameGeneration:
      return "sg";
  }
  return "?";
}

namespace {

Term V(const char* name) { return Term::MakeVariable(name); }
Term C(int64_t v) { return Term::MakeInt(v); }

Literal Edge(const std::string& pred, Term a, Term b) {
  return Literal::Make(pred, {std::move(a), std::move(b)});
}

/// Emits the fact set of one EDB relation with the given graph shape.
void MakeEdbFacts(const std::string& pred, EdbShape shape, size_t facts,
                  size_t domain, Rng* rng, std::vector<Literal>* out) {
  switch (shape) {
    case EdbShape::kChain: {
      size_t len = std::min(facts, domain > 1 ? domain - 1 : 1);
      size_t start = rng->Uniform(std::max<size_t>(1, domain - len));
      for (size_t i = 0; i < len; ++i) {
        out->push_back(Edge(pred, C(static_cast<int64_t>(start + i)),
                            C(static_cast<int64_t>(start + i + 1))));
      }
      break;
    }
    case EdbShape::kTree: {
      // Child -> parent edges of a fanout-f heap layout: parent(i)=(i-1)/f.
      size_t fanout = 2 + rng->Uniform(2);
      size_t nodes = std::min(facts + 1, domain);
      for (size_t i = 1; i < nodes; ++i) {
        out->push_back(Edge(pred, C(static_cast<int64_t>(i)),
                            C(static_cast<int64_t>((i - 1) / fanout))));
      }
      break;
    }
    case EdbShape::kCycle: {
      size_t len = std::max<size_t>(2, std::min(facts, domain));
      for (size_t i = 0; i < len; ++i) {
        out->push_back(Edge(pred, C(static_cast<int64_t>(i)),
                            C(static_cast<int64_t>((i + 1) % len))));
      }
      // A couple of chords to make the cycle less regular.
      for (size_t i = 0; i < 1 + rng->Uniform(3); ++i) {
        out->push_back(Edge(pred, C(static_cast<int64_t>(rng->Uniform(len))),
                            C(static_cast<int64_t>(rng->Uniform(len)))));
      }
      break;
    }
    case EdbShape::kRandom:
    case EdbShape::kMixed: {
      for (size_t i = 0; i < facts; ++i) {
        out->push_back(Edge(pred, C(static_cast<int64_t>(rng->Uniform(domain))),
                            C(static_cast<int64_t>(rng->Uniform(domain)))));
      }
      break;
    }
  }
}

BuiltinKind RandomComparison(Rng* rng) {
  switch (rng->Uniform(5)) {
    case 0:
      return BuiltinKind::kLt;
    case 1:
      return BuiltinKind::kLe;
    case 2:
      return BuiltinKind::kGt;
    case 3:
      return BuiltinKind::kGe;
    default:
      return BuiltinKind::kNe;
  }
}

}  // namespace

bool GeneratedProgram::HasNegation() const {
  for (const Rule& r : rules) {
    for (const Literal& l : r.body()) {
      if (l.negated()) return true;
    }
  }
  return false;
}

std::string GeneratedProgram::ToLdl() const {
  std::string out;
  StrAppend(&out, "% generated program: ", summary, "\n");
  for (const Literal& f : facts) StrAppend(&out, f.ToString(), ".\n");
  for (const Rule& r : rules) StrAppend(&out, r.ToString(), "\n");
  StrAppend(&out, query.ToString(), "?\n");
  return out;
}

Result<Program> GeneratedProgram::BuildProgram() const {
  Program p;
  for (const Rule& r : rules) p.AddRule(r);
  LDL_RETURN_NOT_OK(p.Validate());
  return p;
}

Status GeneratedProgram::BuildDatabase(Database* db) const {
  for (const Literal& f : facts) {
    LDL_RETURN_NOT_OK(db->AddFact(f));
  }
  return Status::OK();
}

GeneratedProgram GenerateProgram(Rng* rng, const ProgramGenOptions& options) {
  GeneratedProgram out;

  // --- EDB layer -----------------------------------------------------------
  size_t span = options.max_edb_relations - options.min_edb_relations + 1;
  size_t n_edb = options.min_edb_relations + rng->Uniform(span);
  n_edb = std::max<size_t>(1, n_edb);
  std::vector<std::string> edb;
  std::vector<EdbShape> shapes;
  for (size_t i = 0; i < n_edb; ++i) {
    EdbShape shape = options.shape;
    if (shape == EdbShape::kMixed) {
      constexpr EdbShape kAll[] = {EdbShape::kChain, EdbShape::kTree,
                                   EdbShape::kCycle, EdbShape::kRandom};
      shape = kAll[rng->Uniform(4)];
    }
    std::string pred = StrCat("e", i);
    size_t facts = options.min_facts +
                   rng->Uniform(options.max_facts - options.min_facts + 1);
    MakeEdbFacts(pred, shape, facts, options.domain, rng, &out.facts);
    edb.push_back(pred);
    shapes.push_back(shape);
  }
  auto pick_edb = [&edb, rng]() -> const std::string& {
    return edb[rng->Uniform(edb.size())];
  };

  // --- recursive clique ----------------------------------------------------
  constexpr RecursionKind kKinds[] = {
      RecursionKind::kLinear, RecursionKind::kNonlinear, RecursionKind::kMutual,
      RecursionKind::kSameGeneration};
  RecursionKind rec = kKinds[rng->Uniform(4)];
  const std::string t = "t";
  switch (rec) {
    case RecursionKind::kLinear:
      out.rules.emplace_back(Edge(t, V("X"), V("Y")),
                             std::vector<Literal>{Edge(pick_edb(), V("X"),
                                                       V("Y"))});
      out.rules.emplace_back(
          Edge(t, V("X"), V("Y")),
          std::vector<Literal>{Edge(pick_edb(), V("X"), V("Z")),
                               Edge(t, V("Z"), V("Y"))});
      break;
    case RecursionKind::kNonlinear:
      out.rules.emplace_back(Edge(t, V("X"), V("Y")),
                             std::vector<Literal>{Edge(pick_edb(), V("X"),
                                                       V("Y"))});
      out.rules.emplace_back(
          Edge(t, V("X"), V("Y")),
          std::vector<Literal>{Edge(t, V("X"), V("Z")),
                               Edge(t, V("Z"), V("Y"))});
      break;
    case RecursionKind::kMutual:
      out.rules.emplace_back(Edge(t, V("X"), V("Y")),
                             std::vector<Literal>{Edge(pick_edb(), V("X"),
                                                       V("Y"))});
      out.rules.emplace_back(
          Edge(t, V("X"), V("Y")),
          std::vector<Literal>{Edge(pick_edb(), V("X"), V("Z")),
                               Edge("u", V("Z"), V("Y"))});
      out.rules.emplace_back(
          Edge("u", V("X"), V("Y")),
          std::vector<Literal>{Edge(pick_edb(), V("X"), V("Z")),
                               Edge(t, V("Z"), V("Y"))});
      break;
    case RecursionKind::kSameGeneration: {
      const std::string& up = pick_edb();
      const std::string& flat = pick_edb();
      const std::string& dn = pick_edb();
      out.rules.emplace_back(Edge(t, V("X"), V("Y")),
                             std::vector<Literal>{Edge(flat, V("X"), V("Y"))});
      out.rules.emplace_back(
          Edge(t, V("X"), V("Y")),
          std::vector<Literal>{Edge(up, V("X"), V("X1")),
                               Edge(t, V("X1"), V("Y1")),
                               Edge(dn, V("Y1"), V("Y"))});
      break;
    }
  }
  if (rng->UniformDouble() < options.extra_exit_probability) {
    out.rules.emplace_back(Edge(t, V("X"), V("Y")),
                           std::vector<Literal>{Edge(pick_edb(), V("X"),
                                                     V("Y"))});
  }

  // --- top view (nonrecursive AND over the clique) -------------------------
  std::string top = t;
  bool has_view = rng->UniformDouble() < options.view_probability;
  bool has_builtin = false;
  bool has_negation = false;
  if (has_view) {
    top = "v";
    std::vector<Literal> body;
    // Three view skeletons, all binding X and Y through positive literals.
    switch (rng->Uniform(3)) {
      case 0:  // v(X,Y) <- t(X,Z), e(Z,Y).
        body.push_back(Edge(t, V("X"), V("Z")));
        body.push_back(Edge(pick_edb(), V("Z"), V("Y")));
        break;
      case 1:  // v(X,Y) <- e(X,Z), t(Z,Y).
        body.push_back(Edge(pick_edb(), V("X"), V("Z")));
        body.push_back(Edge(t, V("Z"), V("Y")));
        break;
      default:  // v(X,Y) <- t(X,Y).
        body.push_back(Edge(t, V("X"), V("Y")));
        break;
    }
    if (rng->UniformDouble() < options.builtin_probability) {
      has_builtin = true;
      body.push_back(
          Literal::MakeBuiltin(RandomComparison(rng), V("X"), V("Y")));
    }
    if (rng->UniformDouble() < options.negation_probability) {
      has_negation = true;
      // All variables of the negated literal are bound by the positives
      // above; negating an EDB relation keeps the program trivially
      // stratified (negating t would also be fine but only when the view
      // body does not depend on t's stratum — keep it simple).
      body.push_back(
          Literal::MakeNegated(pick_edb(), {V("X"), V("Y")}));
    }
    out.rules.emplace_back(Edge(top, V("X"), V("Y")), std::move(body));
  }

  // --- query form ----------------------------------------------------------
  bool bound1 = rng->UniformDouble() < options.bound_query_probability;
  bool bound2 = bound1 && rng->UniformDouble() < options.second_bound_probability;
  auto pick_constant = [&]() -> Term {
    // Usually a value that occurs in the EDB; occasionally a miss.
    if (!out.facts.empty() && rng->Uniform(8) != 0) {
      const Literal& f = out.facts[rng->Uniform(out.facts.size())];
      return f.args()[rng->Uniform(f.args().size())];
    }
    return C(static_cast<int64_t>(rng->Uniform(options.domain + 4)));
  };
  out.query = Literal::Make(
      top, {bound1 ? pick_constant() : V("Qx"),
            bound2 ? pick_constant() : V("Qy")});

  // --- statically dead clauses (analysis targets) --------------------------
  // Drawn last, and only when enabled, so the default configuration's rng
  // stream — and therefore every existing seed's program — is unchanged.
  bool has_dead_rule =
      options.dead_rule_probability > 0 &&
      rng->UniformDouble() < options.dead_rule_probability;
  if (has_dead_rule) {
    // An exit rule that derives nothing: X ranges over the (numeric) EDB
    // but is then equated to a symbol. Run-time semantics are unaffected;
    // the analyzer flags the sort conflict and elimination drops the rule.
    out.rules.emplace_back(
        Edge(t, V("X"), V("Y")),
        std::vector<Literal>{
            Edge(pick_edb(), V("X"), V("Y")),
            Literal::MakeBuiltin(BuiltinKind::kEq, V("X"),
                                 Term::MakeSymbol("zz_dead"))});
  }
  bool has_unreachable =
      options.unreachable_predicate_probability > 0 &&
      rng->UniformDouble() < options.unreachable_predicate_probability;
  if (has_unreachable) {
    // A derived predicate nothing references: unreachable from any query.
    out.rules.emplace_back(
        Edge("zz_unreach", V("X"), V("Y")),
        std::vector<Literal>{Edge(pick_edb(), V("X"), V("Y"))});
  }

  // --- complex terms (engine match paths) ---------------------------------
  // Drawn after everything else, and only when enabled, for the same reason
  // as the dead clauses above. All of it sits above the query predicate, so
  // no arithmetic enters a recursive clique.
  bool has_complex =
      options.complex_term_probability > 0 &&
      rng->UniformDouble() < options.complex_term_probability;
  if (has_complex) {
    auto wrap = [](Term a, Term b) {
      return Literal::Make("w", {Term::MakeFunction("f", {std::move(a),
                                                          std::move(b)})});
    };
    const std::string cx = "cx";
    // w(f(X, Y)) <- top(X, Y).
    out.rules.emplace_back(wrap(V("X"), V("Y")),
                           std::vector<Literal>{Edge(top, V("X"), V("Y"))});
    // cx(X, Y) <- w(f(X, Y)).
    out.rules.emplace_back(Edge(cx, V("X"), V("Y")),
                           std::vector<Literal>{wrap(V("X"), V("Y"))});
    // cx(X, Y) <- w(f(X, X)), e(X, Y).
    out.rules.emplace_back(
        Edge(cx, V("X"), V("Y")),
        std::vector<Literal>{wrap(V("X"), V("X")),
                             Edge(pick_edb(), V("X"), V("Y"))});
    // cx(X, Y) <- e(c, X), top(X, Y).
    out.rules.emplace_back(
        Edge(cx, V("X"), V("Y")),
        std::vector<Literal>{
            Edge(pick_edb(), C(static_cast<int64_t>(
                                 rng->Uniform(options.domain))),
                 V("X")),
            Edge(top, V("X"), V("Y"))});
    // cx(X, Z) <- top(X, Y), Z = Y + 1.
    out.rules.emplace_back(
        Edge(cx, V("X"), V("Z")),
        std::vector<Literal>{
            Edge(top, V("X"), V("Y")),
            Literal::MakeBuiltin(
                BuiltinKind::kEq, V("Z"),
                Term::MakeFunction("+", {V("Y"), C(1)}))});
    out.query = Literal::Make(cx, out.query.args());
  }

  // --- summary -------------------------------------------------------------
  std::string shape_list;
  for (size_t i = 0; i < shapes.size(); ++i) {
    StrAppend(&shape_list, i ? "," : "", EdbShapeToString(shapes[i]));
  }
  out.summary = StrCat(
      "shape=", shape_list, " rec=", RecursionKindToString(rec),
      has_view ? " view" : "", has_builtin ? " builtin" : "",
      has_negation ? " neg" : "", has_dead_rule ? " dead" : "",
      has_unreachable ? " unreach" : "", has_complex ? " complex" : "",
      " adorn=", bound1 ? "b" : "f",
      bound2 ? "b" : "f");
  return out;
}

}  // namespace testing
}  // namespace ldl
