// PC → function:line symbolization over a linked Image's debug line table.
//
// The line table stores text-relative offsets, so the only run-time input is
// the loader's randomized text base: symbolization is exact under any ASLR
// draw, and two draws of the same program resolve the same logical PC to the
// same function:line.  PCs outside the text segment (injected shellcode on
// the stack, kernel pseudo-PCs) stay unresolved — an unsymbolized retire is
// itself a security signal: the machine executed bytes no compiler emitted.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "assembler/object.hpp"

namespace swsec::profile {

struct SourcePos {
    bool known = false;   // inside text with both a function and a line entry
    std::string function; // enclosing .func symbol ("" when unknown)
    std::string file;     // source file of the line entry
    std::uint32_t line = 0;
};

class Symbolizer {
public:
    /// `image` must outlive the symbolizer; `text_base` is the loaded (ASLR)
    /// base of the text segment.  Construction copies nothing: functions
    /// resolve through the image's link-time table (Image::funcs).
    Symbolizer(const objfmt::Image& image, std::uint32_t text_base);

    [[nodiscard]] SourcePos resolve(std::uint32_t pc) const;

    /// "function:line" for known PCs, "0x%08x" otherwise.
    [[nodiscard]] std::string pretty(std::uint32_t pc) const;

    /// Enclosing function name, or "" when the PC is outside any function.
    [[nodiscard]] std::string function_at(std::uint32_t pc) const;

    [[nodiscard]] std::uint32_t text_base() const noexcept { return text_base_; }
    [[nodiscard]] std::uint32_t text_size() const noexcept { return text_size_; }
    [[nodiscard]] const objfmt::Image& image() const noexcept { return *image_; }

private:
    const objfmt::Image* image_;
    std::uint32_t text_base_;
    std::uint32_t text_size_;
};

} // namespace swsec::profile
