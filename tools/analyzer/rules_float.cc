// Float-determinism dataflow: bitwise-identical results at any thread count
// (DESIGN.md "Determinism") require every floating-point reduction to have
// an explicit, schedule-independent order. Two rules police that:
//
//   float-accumulate   std::accumulate over floating types is banned
//                      repo-wide: its left fold bakes in one traversal
//                      order invisible to the reduction-policy audit. Use
//                      par::ParallelReduce (fixed combine tree) or a serial
//                      loop inside a kernel carrying ACPS_ACCUM_POLICY.
//   float-loop-accum   a loop-carried float/double accumulation
//                      (`acc += ...` inside a loop) in the numeric-kernel
//                      directories must live in a blessed kernel: the
//                      enclosing function either routes through
//                      par::ParallelReduce or states its ordering contract
//                      with ACPS_ACCUM_POLICY(<policy>)
//                      (src/par/accum_policy.h). An unannotated stray
//                      accumulation is exactly how a nondeterministic sum
//                      sneaks past review.
//   pack-pure-move     packing helpers (function name contains the
//                      camel-case word "Pack": `PackTransBPanel`, `Pack`,
//                      but not `GemmTransBPackedRows` — "Packed" names a
//                      consumer) of the GEMM kernels (§6e) stage operands
//                      into per-thread scratch; they must be pure data
//                      movement — plain stores, at most a fold of a scalar
//                      constant like alpha. A compound assignment into
//                      MEMORY (a subscripted or dereferenced target,
//                      `dst[i] +=` / `*p *=`) is an accumulation hidden
//                      where the bitwise contract assumes a copy, so it is
//                      flagged unconditionally — exactly the targets the
//                      float-loop-accum declaration tracker cannot see.
//                      Scalar index arithmetic (`kb += 8`, `dst += kMr`)
//                      is address math, not data, and stays legal.
//
// Loop detection is structural (brace tracking over the stripped text, with
// paren-aware statement assembly so classic `for(;;)` headers and braceless
// single-statement loops both count); accumulator variables are the
// float/double locals and members declared in the same function region.
#include <cctype>
#include <regex>
#include <set>

#include "rules.h"

namespace acps::analyze {

namespace {

// Lines of region `fr` (0-based, inclusive) that are inside a loop: a
// brace-delimited for/while block, or the statement a braceless loop header
// governs.
std::vector<char> LoopLines(const SourceFile& f, const FuncRegion& fr) {
  const size_t begin = static_cast<size_t>(fr.open_line - 1);
  const size_t end = static_cast<size_t>(fr.end_line - 1);
  std::vector<char> in_loop(f.code.size(), 0);
  static const std::regex loop_re(R"((^|[^\w])(for|while)\s*\()");

  std::vector<char> block_is_loop;
  std::string stmt;
  bool stmt_loop = false;  // current statement began with a loop header
  int paren = 0;
  for (size_t li = begin; li < f.code.size() && li <= end; ++li) {
    const std::string& line = f.code[li];
    bool line_in_loop = false;
    for (const char c : line) {
      if (c == '(') ++paren;
      if (c == ')' && paren > 0) --paren;
      if (c == '{') {
        block_is_loop.push_back(stmt_loop ? 1 : 0);
        stmt.clear();
        stmt_loop = false;
        paren = 0;
      } else if (c == '}') {
        if (!block_is_loop.empty()) block_is_loop.pop_back();
        stmt.clear();
        stmt_loop = false;
        paren = 0;
      } else if (c == ';' && paren == 0) {
        stmt.clear();
        stmt_loop = false;
      } else {
        stmt += c;
        if (!stmt_loop && (c == '(' || c == ' ') &&
            std::regex_search(stmt, loop_re))
          stmt_loop = true;
      }
      if (stmt_loop ||
          std::count(block_is_loop.begin(), block_is_loop.end(), 1) > 0)
        line_in_loop = true;
    }
    if (line_in_loop) in_loop[li] = 1;
  }
  return in_loop;
}

}  // namespace

void FloatPass(const Corpus& corpus, const Config& cfg,
               std::vector<Diagnostic>& out) {
  // --- float-accumulate -----------------------------------------------------
  static const std::regex floaty_re(
      R"((^|[^\w])(float|double)([^\w]|$)|[0-9]\.[0-9]|[0-9]\.?f[^\w])");
  for (const auto& f : corpus.files) {
    if (!cfg.InScope("float-accumulate", f.path)) continue;
    for (size_t li = 0; li < f.code.size(); ++li) {
      const size_t pos = f.code[li].find("std::accumulate");
      if (pos == std::string::npos) continue;
      // Call span: through the closing parenthesis (bounded lookahead).
      std::string span;
      int depth = 0;
      bool closed = false;
      for (size_t l = li; l < f.code.size() && l < li + 6 && !closed; ++l) {
        const std::string& t = f.code[l];
        for (size_t i = (l == li ? pos : 0); i < t.size(); ++i) {
          span += t[i];
          if (t[i] == '(') ++depth;
          if (t[i] == ')' && --depth == 0) {
            closed = true;
            break;
          }
        }
        span += ' ';
      }
      if (!std::regex_search(span, floaty_re)) continue;  // integral fold: fine
      out.push_back(
          {f.path, static_cast<int>(li + 1), "float-accumulate",
           "std::accumulate over a floating type hides the reduction order "
           "from the accumulation-policy audit; use par::ParallelReduce "
           "(fixed combine tree) or a serial loop in a kernel annotated "
           "with ACPS_ACCUM_POLICY (src/par/accum_policy.h)"});
    }
  }

  // --- float-loop-accum -----------------------------------------------------
  static const std::regex decl_re(
      R"((^|[^\w])(float|double)\s+([A-Za-z_]\w*)\s*[=;{,])");
  static const std::regex accum_re(
      R"((^|[^\w.>])([A-Za-z_]\w*)\s*(\+=|-=|\*=|/=))");
  for (size_t fi = 0; fi < corpus.files.size(); ++fi) {
    const auto& f = corpus.files[fi];
    if (!cfg.InScope("float-loop-accum", f.path)) continue;
    const auto& st = corpus.structure[fi];
    for (const auto& fr : st.funcs) {
      if (!fr.is_def) continue;
      // Blessed kernels: the function routes through ParallelReduce or
      // declares its ordering contract.
      bool blessed = false;
      std::set<std::string> float_vars;
      for (int ln = fr.header_line; ln <= fr.end_line; ++ln) {
        const std::string& line = f.code[static_cast<size_t>(ln - 1)];
        if (line.find("ParallelReduce") != std::string::npos ||
            line.find("ACPS_ACCUM_POLICY") != std::string::npos)
          blessed = true;
        for (auto it = std::sregex_iterator(line.begin(), line.end(), decl_re);
             it != std::sregex_iterator(); ++it)
          float_vars.insert((*it)[3].str());
      }
      if (blessed || float_vars.empty()) continue;

      const std::vector<char> in_loop = LoopLines(f, fr);
      for (int ln = fr.open_line; ln <= fr.end_line; ++ln) {
        if (!in_loop[static_cast<size_t>(ln - 1)]) continue;
        const std::string& line = f.code[static_cast<size_t>(ln - 1)];
        for (auto it = std::sregex_iterator(line.begin(), line.end(), accum_re);
             it != std::sregex_iterator(); ++it) {
          const std::string var = (*it)[2].str();
          if (!float_vars.count(var)) continue;
          out.push_back(
              {f.path, ln, "float-loop-accum",
               "loop-carried floating accumulation into '" + var +
                   "' in function '" + fr.name +
                   "' outside any blessed kernel: route the reduction "
                   "through par::ParallelReduce or state the ordering "
                   "contract with ACPS_ACCUM_POLICY(<policy>) "
                   "(src/par/accum_policy.h)"});
          break;  // one finding per line is enough
        }
      }
    }
  }

  // --- pack-pure-move -------------------------------------------------------
  // Matches compound assignment into memory: a subscripted target
  // (`dst[i] += x`) or a statement-leading dereference (`*p *= y`) — the
  // targets the declaration-tracking rule above cannot attribute to a
  // float variable. Plain scalar updates (loop counters, pointer bumps)
  // are address arithmetic and do not match.
  static const std::regex compound_re(
      R"(\]\s*(\+=|-=|\*=|/=)|(^|[;{])\s*\*[^=;]*(\+=|-=|\*=|/=))");
  // Camel-case word match: "Pack" not followed by a lowercase letter, so
  // PackASmallM / PackTransBPanel / Pack qualify but GemmTransBPackedRows
  // (the consumer kernel, whose word is "Packed") does not.
  const auto is_pack_helper = [](const std::string& name) {
    for (size_t p = name.find("Pack"); p != std::string::npos;
         p = name.find("Pack", p + 1))
      if (p + 4 >= name.size() ||
          !std::islower(static_cast<unsigned char>(name[p + 4])))
        return true;
    return false;
  };
  for (size_t fi = 0; fi < corpus.files.size(); ++fi) {
    const auto& f = corpus.files[fi];
    if (!cfg.InScope("pack-pure-move", f.path)) continue;
    const auto& st = corpus.structure[fi];
    for (const auto& fr : st.funcs) {
      if (!fr.is_def || !is_pack_helper(fr.name)) continue;
      for (int ln = fr.open_line; ln <= fr.end_line; ++ln) {
        const std::string& line = f.code[static_cast<size_t>(ln - 1)];
        if (!std::regex_search(line, compound_re)) continue;
        out.push_back(
            {f.path, ln, "pack-pure-move",
             "compound assignment in packing helper '" + fr.name +
                 "': panel packing must be pure data movement (plain "
                 "stores, at most an alpha fold) — an accumulation here "
                 "changes a value chain the bitwise thread-invariance "
                 "contract (DESIGN.md §6e) assumes is a copy"});
      }
    }
  }
}

}  // namespace acps::analyze
