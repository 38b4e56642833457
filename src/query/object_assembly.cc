#include "query/object_assembly.h"

#include <cctype>
#include <sstream>

namespace semcc {
namespace query {

// --- parsing ----------------------------------------------------------------

Result<PathExpr> PathExpr::Parse(const std::string& text) {
  PathExpr expr;
  size_t i = 0;
  const size_t n = text.size();
  auto fail = [&](const std::string& why) {
    return Status::InvalidArgument("bad path '" + text + "' at offset " +
                                   std::to_string(i) + ": " + why);
  };
  while (i < n) {
    // NAME
    size_t start = i;
    while (i < n && (std::isalnum(static_cast<unsigned char>(text[i])) ||
                     text[i] == '_')) {
      ++i;
    }
    if (i == start) return fail("expected component name");
    PathStep comp;
    comp.kind = PathStep::Kind::kComponent;
    comp.component = text.substr(start, i - start);
    expr.steps_.push_back(std::move(comp));
    // optional [key]
    if (i < n && text[i] == '[') {
      ++i;
      PathStep sel;
      if (i < n && text[i] == '*') {
        ++i;
        sel.kind = PathStep::Kind::kScan;
      } else if (i < n && text[i] == '"') {
        ++i;
        size_t s = i;
        while (i < n && text[i] != '"') ++i;
        if (i == n) return fail("unterminated string key");
        sel.kind = PathStep::Kind::kSelect;
        sel.key = Value(text.substr(s, i - s));
        ++i;
      } else {
        size_t s = i;
        if (i < n && (text[i] == '-' || text[i] == '+')) ++i;
        while (i < n && std::isdigit(static_cast<unsigned char>(text[i]))) ++i;
        if (i == s) return fail("expected key");
        sel.kind = PathStep::Kind::kSelect;
        sel.key = Value(static_cast<int64_t>(std::stoll(text.substr(s, i - s))));
      }
      if (i >= n || text[i] != ']') return fail("expected ']'");
      ++i;
      expr.steps_.push_back(std::move(sel));
    }
    if (i < n) {
      if (text[i] != '.') return fail("expected '.'");
      ++i;
      if (i == n) return fail("trailing '.'");
    }
  }
  if (expr.steps_.empty()) {
    return Status::InvalidArgument("empty path");
  }
  return expr;
}

std::string PathExpr::ToString() const {
  std::string out;
  for (const PathStep& s : steps_) {
    switch (s.kind) {
      case PathStep::Kind::kComponent:
        if (!out.empty()) out += ".";
        out += s.component;
        break;
      case PathStep::Kind::kSelect:
        out.append("[").append(s.key.ToString()).append("]");
        break;
      case PathStep::Kind::kScan:
        out += "[*]";
        break;
    }
  }
  return out;
}

// --- evaluation ---------------------------------------------------------------

Result<std::vector<Oid>> PathExpr::Resolve(TxnCtx& ctx, Oid root) const {
  std::vector<Oid> frontier{root};
  for (const PathStep& step : steps_) {
    std::vector<Oid> next;
    for (Oid oid : frontier) {
      switch (step.kind) {
        case PathStep::Kind::kComponent: {
          SEMCC_ASSIGN_OR_RETURN(Oid comp, ctx.Component(oid, step.component));
          next.push_back(comp);
          break;
        }
        case PathStep::Kind::kSelect: {
          SEMCC_ASSIGN_OR_RETURN(Oid member, ctx.SetSelect(oid, step.key));
          next.push_back(member);
          break;
        }
        case PathStep::Kind::kScan: {
          SEMCC_ASSIGN_OR_RETURN(auto members, ctx.SetScan(oid));
          for (const auto& [key, member] : members) {
            (void)key;
            next.push_back(member);
          }
          break;
        }
      }
    }
    frontier = std::move(next);
  }
  return frontier;
}

Result<std::vector<Value>> PathExpr::ReadValues(TxnCtx& ctx, Oid root) const {
  SEMCC_ASSIGN_OR_RETURN(std::vector<Oid> oids, Resolve(ctx, root));
  std::vector<Value> out;
  out.reserve(oids.size());
  for (Oid oid : oids) {
    SEMCC_ASSIGN_OR_RETURN(Value v, ctx.Get(oid));
    out.push_back(std::move(v));
  }
  return out;
}

// --- assembly -----------------------------------------------------------------

Result<std::unique_ptr<AssembledObject>> Assemble(TxnCtx& ctx, Oid root,
                                                  int max_depth) {
  auto node = std::make_unique<AssembledObject>();
  node->oid = root;
  SEMCC_ASSIGN_OR_RETURN(node->kind, ctx.store()->KindOf(root));
  SEMCC_ASSIGN_OR_RETURN(TypeId type, ctx.store()->TypeOf(root));
  node->type_name = ctx.store()->schema()->TypeName(type);
  if (max_depth <= 0) {
    node->truncated = true;
    return node;
  }
  switch (node->kind) {
    case ObjectKind::kAtomic: {
      SEMCC_ASSIGN_OR_RETURN(node->atom, ctx.Get(root));
      break;
    }
    case ObjectKind::kTuple: {
      SEMCC_ASSIGN_OR_RETURN(auto components, ctx.store()->Components(root));
      for (const auto& [name, coid] : components) {
        SEMCC_ASSIGN_OR_RETURN(auto child, Assemble(ctx, coid, max_depth - 1));
        node->components.emplace_back(name, std::move(child));
      }
      break;
    }
    case ObjectKind::kSet: {
      SEMCC_ASSIGN_OR_RETURN(auto members, ctx.SetScan(root));
      for (const auto& [key, moid] : members) {
        SEMCC_ASSIGN_OR_RETURN(auto child, Assemble(ctx, moid, max_depth - 1));
        node->members.emplace_back(key, std::move(child));
      }
      break;
    }
  }
  return node;
}

std::string AssembledObject::ToString(int indent) const {
  std::ostringstream out;
  const std::string pad(static_cast<size_t>(indent) * 2, ' ');
  out << pad << type_name << "@" << oid;
  switch (kind) {
    case ObjectKind::kAtomic:
      out << " = " << atom.ToString() << "\n";
      break;
    case ObjectKind::kTuple:
      out << " {\n";
      for (const auto& [name, child] : components) {
        out << pad << "  " << name << ":\n" << child->ToString(indent + 2);
      }
      out << pad << "}\n";
      break;
    case ObjectKind::kSet:
      out << " { " << members.size() << " members }\n";
      for (const auto& [key, child] : members) {
        out << pad << "  [" << key.ToString() << "]:\n"
            << child->ToString(indent + 2);
      }
      break;
  }
  if (truncated) out << pad << "  ...(depth limit)\n";
  return out.str();
}

size_t AssembledObject::NodeCount() const {
  size_t n = 1;
  for (const auto& [name, child] : components) {
    (void)name;
    n += child->NodeCount();
  }
  for (const auto& [key, child] : members) {
    (void)key;
    n += child->NodeCount();
  }
  return n;
}

}  // namespace query
}  // namespace semcc
