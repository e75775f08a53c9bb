#include "profile/symbolize.hpp"

#include <algorithm>

#include "common/hexdump.hpp"

namespace swsec::profile {

Symbolizer::Symbolizer(const objfmt::Image& image, std::uint32_t text_base)
    : image_(&image), text_base_(text_base),
      text_size_(static_cast<std::uint32_t>(image.text.size())) {}

SourcePos Symbolizer::resolve(std::uint32_t pc) const {
    SourcePos pos;
    const std::uint32_t off = pc - text_base_;
    if (off >= text_size_) {
        return pos;
    }
    // Enclosing function: last .func symbol at or before `off` (at a shared
    // offset, the last name in sort order).
    const auto& funcs = image_->funcs;
    const auto fit = std::upper_bound(
        funcs.begin(), funcs.end(), off,
        [](std::uint32_t o, const auto& f) { return o < f.first; });
    if (fit != funcs.begin()) {
        pos.function = std::prev(fit)->second;
    }
    // Line: last line-table entry at or before `off`.
    const auto& lt = image_->line_table;
    const auto lit = std::upper_bound(
        lt.begin(), lt.end(), off,
        [](std::uint32_t o, const objfmt::ImageLineEntry& e) { return o < e.offset; });
    if (lit != lt.begin()) {
        const auto& e = *std::prev(lit);
        pos.line = e.line;
        if (e.file < image_->line_files.size()) {
            pos.file = image_->line_files[e.file];
        }
    }
    pos.known = !pos.function.empty() && pos.line != 0;
    return pos;
}

std::string Symbolizer::pretty(std::uint32_t pc) const {
    const SourcePos pos = resolve(pc);
    if (!pos.known) {
        return hex32(pc);
    }
    return pos.function + ":" + std::to_string(pos.line);
}

std::string Symbolizer::function_at(std::uint32_t pc) const { return resolve(pc).function; }

} // namespace swsec::profile
