#include "profile/report.hpp"

#include <algorithm>
#include <cstdio>
#include <map>
#include <set>
#include <unordered_set>

#include "common/escape.hpp"
#include "common/hexdump.hpp"
#include "isa/disasm.hpp"

namespace swsec::profile {

namespace {

std::string count_column(std::uint64_t n) {
    char buf[32];
    std::snprintf(buf, sizeof buf, "%10llu", static_cast<unsigned long long>(n));
    return buf;
}

} // namespace

ProfileReport build_report(const Profiler& prof, const objfmt::Image& image,
                           std::uint32_t text_base) {
    ProfileReport rep;
    rep.text_base = text_base;
    rep.total_retired = prof.retired();
    const Symbolizer sym(image, text_base);

    // --- per-line heat + symbolized fraction -------------------------------
    std::map<std::tuple<std::string, std::string, std::uint32_t>, std::uint64_t> line_heat;
    for (const auto& [pc, count] : prof.pc_counts()) {
        const SourcePos pos = sym.resolve(pc);
        if (pos.known) {
            rep.symbolized_retired += count;
            line_heat[{pos.file, pos.function, pos.line}] += count;
        }
    }
    rep.lines.reserve(line_heat.size());
    for (const auto& [key, count] : line_heat) {
        rep.lines.push_back(LineHeat{std::get<1>(key), std::get<0>(key), std::get<2>(key), count});
    }
    std::sort(rep.lines.begin(), rep.lines.end(), [](const LineHeat& a, const LineHeat& b) {
        return std::tie(b.count, a.file, a.function, a.line) <
               std::tie(a.count, b.file, b.function, b.line);
    });

    // --- basic blocks -------------------------------------------------------
    // Every control transfer (taken or fall-through) is recorded as an edge,
    // so block leaders are exactly: function entries and edge targets.  A
    // leader's retire count is the block's execution count — exact, not
    // sampled.
    std::set<std::uint32_t> leaders;
    for (const auto& func : image.funcs) {
        leaders.insert(text_base + func.first);
    }
    for (const auto& [key, count] : prof.edge_counts()) {
        (void)count;
        leaders.insert(Profiler::edge_to(key));
    }
    for (const std::uint32_t pc : leaders) {
        const auto it = prof.pc_counts().find(pc);
        if (it == prof.pc_counts().end() || it->second == 0) {
            continue;
        }
        rep.blocks.push_back(HotBlock{pc, pc - text_base, it->second, sym.pretty(pc)});
    }
    std::sort(rep.blocks.begin(), rep.blocks.end(), [](const HotBlock& a, const HotBlock& b) {
        return std::tie(b.count, a.pc) < std::tie(a.count, b.pc);
    });

    // --- edges --------------------------------------------------------------
    rep.edges.reserve(prof.edge_counts().size());
    for (const auto& [key, count] : prof.edge_counts()) {
        const std::uint32_t from = Profiler::edge_from(key);
        const std::uint32_t to = Profiler::edge_to(key);
        rep.edges.push_back(EdgeHeat{from, to, count, sym.pretty(from), sym.pretty(to)});
    }
    std::sort(rep.edges.begin(), rep.edges.end(), [](const EdgeHeat& a, const EdgeHeat& b) {
        return std::tie(b.count, a.from, a.to) < std::tie(a.count, b.from, b.to);
    });

    // --- folded stacks ------------------------------------------------------
    std::map<std::string, std::uint64_t> folded;
    for (const auto& [stack, count] : prof.samples()) {
        // stack = shadow frames (function entry PCs) + sampled leaf PC.
        std::string key;
        std::string last;
        for (std::size_t i = 0; i < stack.size(); ++i) {
            std::string name = sym.function_at(stack[i]);
            if (name.empty()) {
                name = hex32(stack[i]);
            }
            // The leaf PC usually lands inside the innermost frame; only
            // append it when it names a different function (e.g. before the
            // first call, or injected code).
            if (i + 1 == stack.size() && name == last) {
                continue;
            }
            if (!key.empty()) {
                key += ';';
            }
            key += name;
            last = std::move(name);
        }
        folded[key] += count;
    }
    rep.folded.reserve(folded.size());
    for (const auto& [stack, count] : folded) {
        rep.folded.push_back(FoldedStack{stack, count});
    }

    // --- annotated disassembly ---------------------------------------------
    // Reverse map text offsets -> function names for section headers.
    std::map<std::uint32_t, std::string> func_names;
    for (const auto& [name, s] : image.symbols) {
        if (s.is_func && s.section == objfmt::SectionKind::Text) {
            func_names[s.offset] = name;
        }
    }
    std::string listing;
    for (const auto& dl : isa::disassemble(image.text, text_base)) {
        const std::uint32_t off = dl.addr - text_base;
        const auto fn = func_names.find(off);
        if (fn != func_names.end()) {
            listing += "\n<" + fn->second + ">:\n";
        }
        const auto it = prof.pc_counts().find(dl.addr);
        const std::uint64_t count = it == prof.pc_counts().end() ? 0 : it->second;
        listing += (count != 0 ? count_column(count) : std::string(10, ' '));
        listing += "  ";
        listing += hex32(dl.addr);
        listing += "  ";
        listing += dl.text;
        const SourcePos pos = sym.resolve(dl.addr);
        if (pos.known) {
            listing += "    ; " + pos.function + ":" + std::to_string(pos.line);
        }
        listing += '\n';
    }
    rep.annotated_disasm = std::move(listing);
    return rep;
}

std::string ProfileReport::to_json() const {
    char buf[64];
    std::string out = "{\"schema\":\"swsec-profile-v1\"";
    out += ",\"text_base\":\"" + hex32(text_base) + "\"";
    out += ",\"total_retired\":" + std::to_string(total_retired);
    out += ",\"symbolized_retired\":" + std::to_string(symbolized_retired);
    std::snprintf(buf, sizeof buf, "%.4f", symbolized_fraction());
    out += ",\"symbolized_fraction\":";
    out += buf;
    out += ",\"blocks\":[";
    for (std::size_t i = 0; i < blocks.size(); ++i) {
        const auto& b = blocks[i];
        if (i != 0) {
            out += ',';
        }
        out += "{\"pc\":\"" + hex32(b.pc) + "\",\"offset\":" + std::to_string(b.offset) +
               ",\"count\":" + std::to_string(b.count) + ",\"sym\":\"" +
               json_escape(b.sym) + "\"}";
    }
    out += "],\"lines\":[";
    for (std::size_t i = 0; i < lines.size(); ++i) {
        const auto& l = lines[i];
        if (i != 0) {
            out += ',';
        }
        out += "{\"function\":\"" + json_escape(l.function) + "\",\"file\":\"" +
               json_escape(l.file) + "\",\"line\":" + std::to_string(l.line) +
               ",\"count\":" + std::to_string(l.count) + "}";
    }
    out += "],\"edges\":[";
    for (std::size_t i = 0; i < edges.size(); ++i) {
        const auto& e = edges[i];
        if (i != 0) {
            out += ',';
        }
        out += "{\"from\":\"" + hex32(e.from) + "\",\"to\":\"" + hex32(e.to) +
               "\",\"count\":" + std::to_string(e.count) + ",\"sym_from\":\"" +
               json_escape(e.sym_from) + "\",\"sym_to\":\"" + json_escape(e.sym_to) +
               "\"}";
    }
    out += "],\"folded\":[";
    for (std::size_t i = 0; i < folded.size(); ++i) {
        if (i != 0) {
            out += ',';
        }
        out += "{\"stack\":\"" + json_escape(folded[i].stack) +
               "\",\"count\":" + std::to_string(folded[i].count) + "}";
    }
    out += "]}";
    return out;
}

std::string ProfileReport::folded_text() const {
    std::string out;
    for (const auto& f : folded) {
        out += f.stack + " " + std::to_string(f.count) + "\n";
    }
    return out;
}

std::string ProfileReport::summary(std::size_t top) const {
    char buf[160];
    std::string out;
    std::snprintf(buf, sizeof buf,
                  "retired %llu instructions, %llu symbolized (%.1f%%), text base %s\n",
                  static_cast<unsigned long long>(total_retired),
                  static_cast<unsigned long long>(symbolized_retired),
                  100.0 * symbolized_fraction(), hex32(text_base).c_str());
    out += buf;
    out += "\nhot blocks (exact retire counts):\n";
    for (std::size_t i = 0; i < blocks.size() && i < top; ++i) {
        std::snprintf(buf, sizeof buf, "  %10llu  %s  %s\n",
                      static_cast<unsigned long long>(blocks[i].count),
                      hex32(blocks[i].pc).c_str(), blocks[i].sym.c_str());
        out += buf;
    }
    out += "\nhot source lines:\n";
    for (std::size_t i = 0; i < lines.size() && i < top; ++i) {
        std::snprintf(buf, sizeof buf, "  %10llu  %s:%u (%s)\n",
                      static_cast<unsigned long long>(lines[i].count), lines[i].function.c_str(),
                      lines[i].line, lines[i].file.c_str());
        out += buf;
    }
    return out;
}

} // namespace swsec::profile
