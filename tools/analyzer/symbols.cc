#include "symbols.h"

#include <algorithm>

namespace acps::analyze {

SymbolIndex SymbolIndex::Build(const Corpus& corpus) {
  SymbolIndex out;
  std::map<std::string, int> by_qualified;

  out.region_sym_.resize(corpus.files.size());
  for (size_t fi = 0; fi < corpus.files.size(); ++fi) {
    const auto& st = corpus.structure[fi];
    auto& region_sym = out.region_sym_[fi];
    region_sym.assign(st.funcs.size(), -1);

    for (size_t ri = 0; ri < st.funcs.size(); ++ri) {
      const FuncRegion& fr = st.funcs[ri];
      if (!fr.is_def || fr.name.empty()) continue;

      const bool anon = fr.scope.find("(anon)") != std::string::npos;
      std::string qualified =
          fr.scope.empty() ? fr.qual : fr.scope + "::" + fr.qual;
      const int anon_file = anon ? static_cast<int>(fi) : -1;
      if (anon_file >= 0) {  // keep statics distinct
        qualified += '@';
        qualified += std::to_string(fi);
      }

      int id;
      if (auto it = by_qualified.find(qualified); it != by_qualified.end()) {
        id = it->second;
      } else {
        id = static_cast<int>(out.syms_.size());
        by_qualified.emplace(qualified, id);
        out.syms_.push_back({qualified, fr.name, anon_file, {}});
        out.by_simple_[fr.name].push_back(id);
      }
      out.syms_[static_cast<size_t>(id)].defs.push_back(
          {static_cast<int>(fi), static_cast<int>(ri)});
      region_sym[ri] = id;
    }
  }
  return out;
}

const std::vector<int>& SymbolIndex::BySimple(const std::string& simple) const {
  static const std::vector<int> empty;
  const auto it = by_simple_.find(simple);
  return it == by_simple_.end() ? empty : it->second;
}

int SymbolIndex::SymbolOfRegion(int file, int func) const {
  if (file < 0 || file >= static_cast<int>(region_sym_.size())) return -1;
  const auto& v = region_sym_[static_cast<size_t>(file)];
  if (func < 0 || func >= static_cast<int>(v.size())) return -1;
  return v[static_cast<size_t>(func)];
}

int SymbolIndex::SymbolAt(const Corpus& corpus, int file, int line) const {
  if (file < 0 || file >= static_cast<int>(corpus.structure.size())) return -1;
  const auto& st = corpus.structure[static_cast<size_t>(file)];
  int best = -1;
  int best_header = -1;
  for (size_t ri = 0; ri < st.funcs.size(); ++ri) {
    const FuncRegion& fr = st.funcs[ri];
    const int sym = SymbolOfRegion(file, static_cast<int>(ri));
    if (sym < 0) continue;
    const int end = fr.end_line > 0 ? fr.end_line : 1 << 30;
    if (fr.header_line <= line && line <= end && fr.header_line > best_header) {
      best_header = fr.header_line;
      best = sym;
    }
  }
  return best;
}

}  // namespace acps::analyze
