#include "core/campaign/wal.hpp"

#include <cerrno>
#include <cstring>
#include <fstream>
#include <sstream>

#include <fcntl.h>
#include <unistd.h>

#include "common/atomic_file.hpp"
#include "common/checksum.hpp"
#include "common/error.hpp"
#include "common/escape.hpp"

namespace swsec::campaign {

namespace {

constexpr char kHex[] = "0123456789abcdef";

std::string hex8(std::uint32_t v) {
    std::string s(8, '0');
    for (int i = 7; i >= 0; --i) {
        s[static_cast<std::size_t>(i)] = kHex[v & 0xf];
        v >>= 4;
    }
    return s;
}

/// Inverse of json_escape for the subset it emits ("\\" '\"' \n \r
/// \t \u00XX).  Returns false on a malformed escape.
bool json_unescape(std::string_view in, std::string& out) {
    out.clear();
    out.reserve(in.size());
    for (std::size_t i = 0; i < in.size(); ++i) {
        const char c = in[i];
        if (c != '\\') {
            out += c;
            continue;
        }
        if (++i >= in.size()) {
            return false;
        }
        switch (in[i]) {
        case '"': out += '"'; break;
        case '\\': out += '\\'; break;
        case 'n': out += '\n'; break;
        case 'r': out += '\r'; break;
        case 't': out += '\t'; break;
        case 'u': {
            if (i + 4 >= in.size()) {
                return false;
            }
            unsigned v = 0;
            for (int k = 0; k < 4; ++k) {
                const char h = in[++i];
                v <<= 4;
                if (h >= '0' && h <= '9') {
                    v |= static_cast<unsigned>(h - '0');
                } else if (h >= 'a' && h <= 'f') {
                    v |= static_cast<unsigned>(h - 'a' + 10);
                } else {
                    return false;
                }
            }
            if (v > 0xff) {
                return false; // json_escape only emits \u00XX
            }
            out += static_cast<char>(v);
            break;
        }
        default: return false;
        }
    }
    return true;
}

/// Scan a JSON string body starting at `p` (just past the opening quote);
/// on success sets `end` to the closing quote and returns the body.
bool scan_string(std::string_view s, std::size_t p, std::size_t& end, std::string_view& body) {
    const std::size_t start = p;
    while (p < s.size()) {
        if (s[p] == '\\') {
            p += 2;
            continue;
        }
        if (s[p] == '"') {
            end = p;
            body = s.substr(start, p - start);
            return true;
        }
        ++p;
    }
    return false;
}

bool scan_uint(std::string_view s, std::size_t& p, std::uint64_t& v) {
    if (p >= s.size() || s[p] < '0' || s[p] > '9') {
        return false;
    }
    v = 0;
    while (p < s.size() && s[p] >= '0' && s[p] <= '9') {
        v = v * 10 + static_cast<std::uint64_t>(s[p] - '0');
        ++p;
    }
    return true;
}

bool consume(std::string_view s, std::size_t& p, std::string_view lit) {
    if (s.substr(p, lit.size()) != lit) {
        return false;
    }
    p += lit.size();
    return true;
}

} // namespace

std::string wal_line(const WalRecord& rec) {
    std::string json = "{\"cell\":" + std::to_string(rec.cell);
    if (rec.status == CellStatus::Done) {
        json += ",\"status\":\"done\",\"payload\":" + rec.payload + "}";
    } else {
        json += ",\"status\":\"quarantined\",\"reason\":\"" + rec.reason + "\"";
        json += ",\"attempts\":" + std::to_string(rec.attempts);
        json += ",\"detail\":\"" + json_escape(rec.detail) + "\"}";
    }
    return hex8(crc32(json)) + " " + json + "\n";
}

bool parse_wal_line(std::string_view line, WalRecord& out) {
    if (line.size() < 10 || line[8] != ' ') {
        return false;
    }
    std::uint32_t want = 0;
    for (int i = 0; i < 8; ++i) {
        const char h = line[static_cast<std::size_t>(i)];
        want <<= 4;
        if (h >= '0' && h <= '9') {
            want |= static_cast<std::uint32_t>(h - '0');
        } else if (h >= 'a' && h <= 'f') {
            want |= static_cast<std::uint32_t>(h - 'a' + 10);
        } else {
            return false;
        }
    }
    const std::string_view json = line.substr(9);
    if (crc32(json) != want) {
        return false;
    }
    std::size_t p = 0;
    WalRecord rec;
    if (!consume(json, p, "{\"cell\":") || !scan_uint(json, p, rec.cell)) {
        return false;
    }
    if (consume(json, p, ",\"status\":\"done\",\"payload\":")) {
        if (p >= json.size() || json.back() != '}') {
            return false;
        }
        rec.status = CellStatus::Done;
        rec.payload = std::string(json.substr(p, json.size() - p - 1));
        out = rec;
        return true;
    }
    if (!consume(json, p, ",\"status\":\"quarantined\",\"reason\":\"")) {
        return false;
    }
    rec.status = CellStatus::Quarantined;
    std::size_t end = 0;
    std::string_view body;
    if (!scan_string(json, p, end, body)) {
        return false;
    }
    rec.reason = std::string(body);
    p = end + 1;
    std::uint64_t attempts = 0;
    if (!consume(json, p, ",\"attempts\":") || !scan_uint(json, p, attempts)) {
        return false;
    }
    rec.attempts = static_cast<unsigned>(attempts);
    if (!consume(json, p, ",\"detail\":\"") || !scan_string(json, p, end, body)) {
        return false;
    }
    if (!json_unescape(body, rec.detail)) {
        return false;
    }
    if (json.substr(end + 1) != "}") {
        return false;
    }
    out = rec;
    return true;
}

WalContents read_wal(const std::string& path) {
    WalContents wc;
    std::ifstream in(path, std::ios::binary);
    if (!in) {
        return wc; // no log yet: a fresh campaign
    }
    std::ostringstream buf;
    buf << in.rdbuf();
    const std::string text = buf.str();
    std::size_t pos = 0;
    bool damaged = false;
    while (pos < text.size()) {
        std::size_t nl = text.find('\n', pos);
        std::string_view line;
        if (nl == std::string::npos) {
            line = std::string_view(text).substr(pos); // torn final line
            nl = text.size();
        } else {
            line = std::string_view(text).substr(pos, nl - pos);
        }
        WalRecord rec;
        if (damaged || !parse_wal_line(line, rec)) {
            // First bad line starts the damaged suffix; everything after it
            // is untrusted even if it happens to parse.
            damaged = true;
            ++wc.dropped_lines;
        } else {
            wc.records.push_back(std::move(rec));
            wc.lines.emplace_back(line);
        }
        pos = nl + 1;
    }
    wc.truncated = damaged;
    return wc;
}

WalWriter::WalWriter(const std::string& path, int fsync_every)
    : fsync_every_(fsync_every) {
    fd_ = ::open(path.c_str(), O_WRONLY | O_CREAT | O_APPEND | O_CLOEXEC, 0644);
    if (fd_ < 0) {
        throw Error("campaign wal: cannot open " + path + ": " + std::strerror(errno));
    }
    // Make the log's existence durable before the first record lands.
    fsync_parent_dir(path);
}

WalWriter::~WalWriter() {
    if (fd_ >= 0) {
        ::fsync(fd_);
        ::close(fd_);
    }
}

void WalWriter::append(const WalRecord& rec) {
    const std::string line = wal_line(rec);
    const std::lock_guard<std::mutex> lock(mu_);
    std::size_t off = 0;
    while (off < line.size()) {
        const ssize_t n = ::write(fd_, line.data() + off, line.size() - off);
        if (n < 0) {
            if (errno == EINTR) {
                continue;
            }
            throw Error(std::string("campaign wal: write failed: ") + std::strerror(errno));
        }
        off += static_cast<std::size_t>(n);
    }
    if (fsync_every_ > 0 && ++since_sync_ >= fsync_every_) {
        ::fsync(fd_);
        since_sync_ = 0;
    }
}

void WalWriter::sync() {
    const std::lock_guard<std::mutex> lock(mu_);
    ::fsync(fd_);
    since_sync_ = 0;
}

} // namespace swsec::campaign
