// Pass 2: wire-protocol drift checking.
//
// The message structs in src/wire/messages.hpp expose their fields
// through the visit pattern (kTypeName + Visit calling
// v.Field("name", member)), so encode and decode are symmetric *by
// construction* — but only as long as (a) every declared member is
// visited, once, in declaration order, under its own name, (b) the four
// codec Field-overload sets (tagged/compact x writer/reader) support
// the same type set and the tagged pair agrees on each type's FieldTag,
// (c) every message is registered with the compact codec, (d) every
// QueryOp the wire can carry is both gated at decode and handled by the
// per-node operator switch, and (e) batched replies are decoded through
// their per-item checksums. Each of those is exactly the kind of edit
// that drifts silently when a field or operator is added in one place
// and not the other; this pass makes the fuzz-only bug class a
// deterministic gate.
#include "analysis.hpp"

#include <algorithm>
#include <map>
#include <set>
#include <tuple>

#include "source_view.hpp"

namespace kvscale::lint {

namespace {

constexpr std::string_view kVisitDrift = "wire-visit-drift";
constexpr std::string_view kFieldOrder = "wire-field-order";
constexpr std::string_view kCodecAsymmetry = "wire-codec-asymmetry";
constexpr std::string_view kUnregistered = "wire-unregistered-message";
constexpr std::string_view kOperatorUnhandled = "wire-operator-unhandled";
constexpr std::string_view kOperatorCount = "wire-operator-count";
constexpr std::string_view kDecodeGate = "wire-decode-gate";
constexpr std::string_view kReplyGate = "wire-reply-gate";

constexpr std::string_view kMessagesHpp = "src/wire/messages.hpp";
constexpr std::string_view kMessagesCpp = "src/wire/messages.cpp";
constexpr std::string_view kCodecHpp = "src/wire/codec.hpp";
constexpr std::string_view kQueryOpsCpp = "src/cluster/query_ops.cpp";
constexpr std::string_view kEnvelopeCpp = "src/wire/envelope.cpp";

/// Wire-encodable field types, as written in member declarations.
const std::set<std::string>& SupportedTypes() {
  static const std::set<std::string> kTypes = {
      "uint32_t",         "uint64_t",
      "int64_t",          "double",
      "std::string",      "std::vector<uint64_t>",
      "std::vector<std::string>"};
  return kTypes;
}

std::string CollapseSpaces(std::string_view text) {
  std::string out;
  bool in_space = true;
  for (const char c : text) {
    if (c == ' ' || c == '\t') {
      if (!in_space) out.push_back(' ');
      in_space = true;
    } else {
      out.push_back(c);
      in_space = false;
    }
  }
  while (!out.empty() && out.back() == ' ') out.pop_back();
  return out;
}

std::string Collapse(std::string_view text);

/// Normalizes a member/parameter type: drops spaces inside template
/// brackets so "std::vector< uint64_t >" == "std::vector<uint64_t>".
std::string NormalizeType(std::string_view text) {
  std::string out;
  for (const char c : Collapse(text)) {
    out.push_back(c);
  }
  return out;
}

std::string Collapse(std::string_view text) {
  std::string collapsed = CollapseSpaces(text);
  std::string out;
  for (size_t i = 0; i < collapsed.size(); ++i) {
    if (collapsed[i] == ' ' &&
        ((i > 0 && (collapsed[i - 1] == '<' || collapsed[i - 1] == ',')) ||
         (i + 1 < collapsed.size() && (collapsed[i + 1] == '<' ||
                                       collapsed[i + 1] == '>' ||
                                       collapsed[i + 1] == ',')))) {
      continue;
    }
    out.push_back(collapsed[i]);
  }
  return out;
}

struct MessageField {
  std::string name;
  std::string type;
  int line = 0;
};

struct VisitedField {
  std::string field_name;  ///< the string literal passed to v.Field
  std::string member;      ///< the member expression
  int line = 0;
};

struct MessageStruct {
  std::string name;       ///< C++ struct name
  std::string type_name;  ///< kTypeName literal
  int line = 0;
  std::vector<MessageField> members;
  std::vector<VisitedField> visited;
};

/// Extracts every struct that declares a kTypeName from messages.hpp.
std::vector<MessageStruct> ParseMessages(const FileView& view) {
  std::vector<MessageStruct> messages;
  MessageStruct* current = nullptr;
  int depth = 0;
  int struct_depth = -1;
  bool in_visit = false;
  int visit_depth = -1;
  for (size_t i = 0; i < view.code.size(); ++i) {
    const std::string& code = view.code[i];
    const std::string& raw = view.raw[i];
    const int line_no = static_cast<int>(i) + 1;
    const std::string_view trimmed = Trim(code);
    if (current == nullptr && StartsWith(trimmed, "struct ")) {
      std::string_view rest = trimmed.substr(7);
      size_t end = 0;
      while (end < rest.size() && IsIdentChar(rest[end])) ++end;
      if (end > 0 && rest.find(';') == std::string_view::npos) {
        messages.push_back({});
        current = &messages.back();
        current->name = std::string(rest.substr(0, end));
        current->line = line_no;
        struct_depth = depth;
      }
    }
    if (current != nullptr) {
      if (trimmed.find("kTypeName") != std::string_view::npos &&
          trimmed.find('=') != std::string_view::npos) {
        const size_t open = raw.find('"');
        const size_t close =
            open == std::string::npos ? open : raw.find('"', open + 1);
        if (close != std::string::npos) {
          current->type_name = raw.substr(open + 1, close - open - 1);
        }
      } else if (!in_visit && depth == struct_depth + 1) {
        // Candidate member declaration: "TYPE name( = init)?;"
        const std::string text = Collapse(trimmed);
        const size_t semi = text.find(';');
        if (semi != std::string::npos && text.find('(') == std::string::npos &&
            !StartsWith(text, "static") && !StartsWith(text, "template") &&
            !StartsWith(text, "using")) {
          std::string decl = text.substr(0, semi);
          const size_t eq = decl.find('=');
          if (eq != std::string::npos) {
            decl = std::string(Trim(std::string_view(decl).substr(0, eq)));
          }
          const size_t space = decl.rfind(' ');
          if (space != std::string::npos) {
            const std::string name = decl.substr(space + 1);
            const std::string type = NormalizeType(decl.substr(0, space));
            bool ident_ok = !name.empty();
            for (const char c : name) ident_ok = ident_ok && IsIdentChar(c);
            if (ident_ok) current->members.push_back({name, type, line_no});
          }
        }
      }
      if (trimmed.find("void Visit(") != std::string_view::npos) {
        in_visit = true;
        visit_depth = depth;
      }
      if (in_visit) {
        size_t pos = code.find(".Field(");
        while (pos != std::string::npos) {
          // Literal from the raw view at the same columns (the code view
          // blanks it).
          const size_t open = raw.find('"', pos);
          const size_t close =
              open == std::string::npos ? open : raw.find('"', open + 1);
          if (close != std::string::npos) {
            const std::string field = raw.substr(open + 1, close - open - 1);
            size_t comma = raw.find(',', close);
            size_t end_paren = raw.find(')', close);
            std::string member;
            if (comma != std::string::npos && end_paren != std::string::npos &&
                comma < end_paren) {
              member = std::string(
                  Trim(std::string_view(raw).substr(comma + 1,
                                                    end_paren - comma - 1)));
            }
            current->visited.push_back({field, member, line_no});
          }
          pos = code.find(".Field(", pos + 1);
        }
      }
    }
    for (const char c : code) {
      if (c == '{') ++depth;
      if (c == '}') {
        --depth;
        if (in_visit && depth == visit_depth) in_visit = false;
        if (current != nullptr && depth == struct_depth) {
          if (current->type_name.empty()) messages.pop_back();  // not a message
          current = nullptr;
        }
      }
    }
  }
  return messages;
}

/// The Field-overload sets of one codec struct (Writer or Reader), plus
/// the tagged codec's per-type FieldTag (empty for compact).
struct OverloadSet {
  std::map<std::string, int> type_lines;  ///< normalized type -> first line
  std::map<std::string, std::string> type_tags;  ///< type -> FieldTag name
};

/// Parses codec.hpp into the four overload sets, keyed
/// "TaggedCodec.Writer" etc.
std::map<std::string, OverloadSet> ParseCodecs(const FileView& view) {
  std::map<std::string, OverloadSet> sets;
  std::string codec;     // innermost "class XCodec"
  std::string visitor;   // innermost "struct Writer/Reader"
  int depth = 0;
  int codec_depth = -1;
  int visitor_depth = -1;
  std::string pending_type;  // overload whose body may span lines
  for (size_t i = 0; i < view.code.size(); ++i) {
    const std::string& code = view.code[i];
    const int line_no = static_cast<int>(i) + 1;
    const std::string_view trimmed = Trim(code);
    if (StartsWith(trimmed, "class ")) {
      std::string_view rest = trimmed.substr(6);
      size_t end = 0;
      while (end < rest.size() && IsIdentChar(rest[end])) ++end;
      if (rest.find(';') == std::string_view::npos) {
        codec = std::string(rest.substr(0, end));
        codec_depth = depth;
        visitor.clear();
      }
    } else if (!codec.empty() && (StartsWith(trimmed, "struct Writer") ||
                                  StartsWith(trimmed, "struct Reader"))) {
      visitor = StartsWith(trimmed, "struct Writer") ? "Writer" : "Reader";
      visitor_depth = depth;
      pending_type.clear();
    }
    if (!visitor.empty()) {
      const std::string key = codec + "." + visitor;
      const size_t field_pos = code.find("Field(std::string_view");
      if (field_pos != std::string::npos) {
        // "void Field(std::string_view name?, TYPE& v)"
        const size_t comma = code.find(',', field_pos);
        const size_t amp = code.find('&', comma == std::string::npos
                                              ? field_pos
                                              : comma);
        if (comma != std::string::npos && amp != std::string::npos &&
            amp > comma) {
          const std::string type =
              NormalizeType(code.substr(comma + 1, amp - comma - 1));
          if (!type.empty()) {
            sets[key].type_lines.emplace(type, line_no);
            pending_type = type;
          }
        }
      }
      if (!pending_type.empty()) {
        const size_t head_pos = code.find("Head(");
        if (head_pos != std::string::npos) {
          const size_t tag_pos = code.find("FieldTag::", head_pos);
          if (tag_pos != std::string::npos) {
            size_t end = tag_pos + 10;
            while (end < code.size() && IsIdentChar(code[end])) ++end;
            sets[key].type_tags[pending_type] =
                code.substr(tag_pos + 10, end - tag_pos - 10);
          }
        }
      }
    }
    for (const char c : code) {
      if (c == '{') ++depth;
      if (c == '}') {
        --depth;
        if (!visitor.empty() && depth == visitor_depth) {
          visitor.clear();
          pending_type.clear();
        }
        if (!codec.empty() && depth == codec_depth) codec.clear();
      }
    }
  }
  return sets;
}

struct EnumInfo {
  std::vector<std::pair<std::string, int>> enumerators;  ///< name, line
  int count_value = -1;       ///< kQueryOpCount literal, -1 when absent
  int count_line = 0;
};

EnumInfo ParseQueryOps(const FileView& view) {
  EnumInfo info;
  bool in_enum = false;
  for (size_t i = 0; i < view.code.size(); ++i) {
    const std::string_view trimmed = Trim(view.code[i]);
    const int line_no = static_cast<int>(i) + 1;
    if (StartsWith(trimmed, "enum QueryOp")) in_enum = true;
    if (in_enum) {
      if (StartsWith(trimmed, "kOp")) {
        size_t end = 0;
        while (end < trimmed.size() && IsIdentChar(trimmed[end])) ++end;
        info.enumerators.emplace_back(std::string(trimmed.substr(0, end)),
                                      line_no);
      }
      if (trimmed.find("};") != std::string_view::npos) in_enum = false;
    }
    const size_t count_pos = trimmed.find("kQueryOpCount");
    if (count_pos != std::string_view::npos) {
      const size_t eq = trimmed.find('=', count_pos);
      if (eq != std::string_view::npos) {
        info.count_value = 0;
        info.count_line = line_no;
        for (size_t j = eq + 1; j < trimmed.size(); ++j) {
          if (trimmed[j] >= '0' && trimmed[j] <= '9') {
            info.count_value = info.count_value * 10 + (trimmed[j] - '0');
          } else if (trimmed[j] == ';') {
            break;
          }
        }
      }
    }
  }
  return info;
}

void Report(std::vector<Finding>& findings, std::string_view file, int line,
            std::string_view id, std::string message) {
  findings.push_back(
      {std::string(file), line, std::string(id), std::move(message)});
}

}  // namespace

std::vector<Finding> AnalyzeWireDrift(const std::filesystem::path& root) {
  std::vector<Finding> findings;

  const std::string messages_text = ReadFileOrEmpty(root / kMessagesHpp);
  std::vector<MessageStruct> messages;
  if (!messages_text.empty()) {
    messages = ParseMessages(BuildView(messages_text));
  }

  // -- per-message visit symmetry ------------------------------------------
  for (const MessageStruct& msg : messages) {
    std::map<std::string, int> visit_count;
    for (const VisitedField& v : msg.visited) ++visit_count[v.member];
    std::set<std::string> member_names;
    for (const MessageField& m : msg.members) member_names.insert(m.name);

    for (const MessageField& m : msg.members) {
      const auto it = visit_count.find(m.name);
      if (it == visit_count.end()) {
        Report(findings, kMessagesHpp, m.line, kVisitDrift,
               msg.name + "::" + m.name +
                   " is declared but never visited: it will silently be "
                   "dropped from every encoded frame");
      } else if (it->second > 1) {
        Report(findings, kMessagesHpp, m.line, kVisitDrift,
               msg.name + "::" + m.name + " is visited " +
                   std::to_string(it->second) +
                   " times: the frame carries the field twice");
      }
      if (!SupportedTypes().count(m.type)) {
        Report(findings, kMessagesHpp, m.line, kCodecAsymmetry,
               msg.name + "::" + m.name + " has type '" + m.type +
                   "' which no codec Field overload supports");
      }
    }
    for (const VisitedField& v : msg.visited) {
      if (!member_names.count(v.member)) {
        Report(findings, kMessagesHpp, v.line, kVisitDrift,
               msg.name + "::Visit references '" + v.member +
                   "' which is not a declared field of the struct");
      }
      if (v.field_name != v.member) {
        Report(findings, kMessagesHpp, v.line, kVisitDrift,
               msg.name + "::Visit labels member '" + v.member + "' as \"" +
                   v.field_name +
                   "\": the tagged codec validates names, so the label must "
                   "match the member");
      }
    }
    // Declaration order == visit order (the compact codec's contract is
    // "fields in declaration order").
    std::vector<std::string> declared, visited;
    for (const MessageField& m : msg.members) {
      if (visit_count.count(m.name)) declared.push_back(m.name);
    }
    for (const VisitedField& v : msg.visited) {
      if (member_names.count(v.member)) visited.push_back(v.member);
    }
    if (declared != visited && declared.size() == visited.size()) {
      Report(findings, kMessagesHpp, msg.line, kFieldOrder,
             msg.name +
                 "::Visit walks fields in a different order than they are "
                 "declared; the compact codec's wire contract is "
                 "declaration order");
    }
  }

  // -- codec overload symmetry ---------------------------------------------
  const std::string codec_text = ReadFileOrEmpty(root / kCodecHpp);
  if (!codec_text.empty()) {
    const std::map<std::string, OverloadSet> sets =
        ParseCodecs(BuildView(codec_text));
    // Union of supported types across all visitor structs.
    std::set<std::string> all_types;
    for (const auto& [key, set] : sets) {
      for (const auto& [type, line] : set.type_lines) all_types.insert(type);
    }
    for (const auto& [key, set] : sets) {
      for (const std::string& type : all_types) {
        if (!set.type_lines.count(type)) {
          Report(findings, kCodecHpp, 1, kCodecAsymmetry,
                 key + " has no Field overload for '" + type +
                     "' but another codec visitor does: a message using it "
                     "encodes on one side and fails to compile or decode on "
                     "the other");
        }
      }
    }
    // The tagged writer and reader must agree on each type's FieldTag.
    const auto writer = sets.find("TaggedCodec.Writer");
    const auto reader = sets.find("TaggedCodec.Reader");
    if (writer != sets.end() && reader != sets.end()) {
      for (const auto& [type, tag] : writer->second.type_tags) {
        const auto rt = reader->second.type_tags.find(type);
        if (rt != reader->second.type_tags.end() && rt->second != tag) {
          Report(findings, kCodecHpp,
                 writer->second.type_lines.count(type)
                     ? writer->second.type_lines.at(type)
                     : 1,
                 kCodecAsymmetry,
                 "TaggedCodec writes '" + type + "' with FieldTag::" + tag +
                     " but reads it expecting FieldTag::" + rt->second);
        }
      }
    }
  }

  // -- registration completeness -------------------------------------------
  const std::string reg_text = ReadFileOrEmpty(root / kMessagesCpp);
  if (!reg_text.empty() && !messages.empty()) {
    const FileView view = BuildView(reg_text);
    std::set<std::string> registered;
    int register_fn_line = 0;
    for (size_t i = 0; i < view.code.size(); ++i) {
      const std::string& code = view.code[i];
      if (code.find("RegisterClusterMessages") != std::string::npos &&
          register_fn_line == 0) {
        register_fn_line = static_cast<int>(i) + 1;
      }
      size_t pos = code.find("Register<");
      while (pos != std::string::npos) {
        const size_t start = pos + 9;
        size_t end = start;
        while (end < code.size() && IsIdentChar(code[end])) ++end;
        registered.insert(code.substr(start, end - start));
        pos = code.find("Register<", end);
      }
    }
    for (const MessageStruct& msg : messages) {
      if (!registered.count(msg.name)) {
        Report(findings, kMessagesCpp,
               register_fn_line == 0 ? 1 : register_fn_line, kUnregistered,
               msg.name + " (" + msg.type_name +
                   ") is never registered in RegisterClusterMessages: the "
                   "compact codec aborts on first use");
      }
    }
  }

  // -- operator coverage ----------------------------------------------------
  if (!messages_text.empty()) {
    const EnumInfo ops = ParseQueryOps(BuildView(messages_text));
    const std::string ops_text = ReadFileOrEmpty(root / kQueryOpsCpp);
    if (!ops_text.empty() && !ops.enumerators.empty()) {
      const FileView view = BuildView(ops_text);
      std::set<std::string> handled;
      bool has_default = false;
      int switch_line = 1;
      for (size_t i = 0; i < view.code.size(); ++i) {
        const std::string_view trimmed = Trim(view.code[i]);
        if (trimmed.find("switch") != std::string_view::npos &&
            switch_line == 1) {
          switch_line = static_cast<int>(i) + 1;
        }
        if (StartsWith(trimmed, "case ")) {
          for (const auto& [name, line] : ops.enumerators) {
            if (trimmed.find(name) != std::string_view::npos) {
              handled.insert(name);
            }
          }
        }
        if (StartsWith(trimmed, "default:")) has_default = true;
      }
      for (const auto& [name, line] : ops.enumerators) {
        if (!handled.count(name)) {
          Report(findings, kQueryOpsCpp, switch_line, kOperatorUnhandled,
                 "QueryOp " + name + " (declared at " +
                     std::string(kMessagesHpp) + ":" + std::to_string(line) +
                     ") is accepted by the decoder but has no case in the "
                     "operator switch");
        }
      }
      if (!has_default) {
        Report(findings, kQueryOpsCpp, switch_line, kOperatorUnhandled,
               "operator switch has no default arm rejecting unknown ops");
      }
    }
    if (ops.count_value >= 0 &&
        ops.count_value != static_cast<int>(ops.enumerators.size())) {
      Report(findings, kMessagesHpp, ops.count_line, kOperatorCount,
             "kQueryOpCount is " + std::to_string(ops.count_value) + " but " +
                 std::to_string(ops.enumerators.size()) +
                 " QueryOp enumerators are declared: the decode gate and "
                 "the enum drifted apart");
    }
    const std::string envelope_text = ReadFileOrEmpty(root / kEnvelopeCpp);
    if (!envelope_text.empty() && !ops.enumerators.empty()) {
      const FileView view = BuildView(envelope_text);
      bool gated = false;
      for (const std::string& code : view.code) {
        if (code.find("IsKnownQueryOp") != std::string::npos) gated = true;
      }
      if (!gated) {
        Report(findings, kEnvelopeCpp, 1, kDecodeGate,
               "sub-query decode path never calls IsKnownQueryOp: corrupt "
               "operator ids reach the execution switch unchecked");
      }
    }
  }

  // -- reply-batch gate -----------------------------------------------------
  // A batched reply carries many answers in one frame; only the per-item
  // checksum lets one damaged answer fail over alone. A decode path that
  // stops verifying it would fold damaged answers silently.
  const bool has_reply_batch =
      std::any_of(messages.begin(), messages.end(),
                  [](const MessageStruct& m) {
                    return m.name == "SubQueryReplyBatch";
                  });
  const std::string reply_envelope_text =
      has_reply_batch ? ReadFileOrEmpty(root / kEnvelopeCpp) : std::string();
  if (!reply_envelope_text.empty()) {
    const FileView view = BuildView(reply_envelope_text);
    bool gated = false;
    for (const std::string& code : view.code) {
      if (code.find("ReplyItemChecksum") != std::string::npos) gated = true;
    }
    if (!gated) {
      Report(findings, kEnvelopeCpp, 1, kReplyGate,
             "SubQueryReplyBatch is decoded without ReplyItemChecksum: a "
             "damaged answer would fold instead of failing over alone");
    }
  }

  std::sort(findings.begin(), findings.end(),
            [](const Finding& a, const Finding& b) {
              return std::tie(a.file, a.line, a.rule, a.message) <
                     std::tie(b.file, b.line, b.rule, b.message);
            });
  return findings;
}

}  // namespace kvscale::lint
