#include "service/wire.h"

#include <sys/socket.h>

#include <algorithm>
#include <bit>
#include <cerrno>
#include <charconv>
#include <cstdio>
#include <cstdlib>
#include <iterator>
#include <optional>
#include <type_traits>

#include "engine/manifest.h"
#include "engine/scenario_schema.h"

namespace manhattan::service {

namespace schema = engine::schema;

namespace {

[[noreturn]] void bad(const std::string& what) { throw wire_error(what); }

constexpr std::size_t max_depth = 64;  ///< nesting bound (hostile input guard)

// ------------------------------------------------------------------ parser --

class parser {
 public:
    explicit parser(const std::string& text) : text_(text) {}

    json_value run() {
        json_value v = value(0);
        skip_ws();
        if (pos_ != text_.size()) {
            bad("trailing content after document (offset " + std::to_string(pos_) + ")");
        }
        return v;
    }

 private:
    void skip_ws() {
        while (pos_ < text_.size()) {
            const char c = text_[pos_];
            if (c != ' ' && c != '\t' && c != '\n' && c != '\r') {
                break;
            }
            ++pos_;
        }
    }

    char peek() {
        if (pos_ >= text_.size()) {
            bad("truncated document");
        }
        return text_[pos_];
    }

    void expect(char c) {
        if (peek() != c) {
            bad(std::string{"expected '"} + c + "' at offset " + std::to_string(pos_));
        }
        ++pos_;
    }

    bool literal(const char* word) {
        const std::size_t len = std::char_traits<char>::length(word);
        if (text_.compare(pos_, len, word) == 0) {
            pos_ += len;
            return true;
        }
        return false;
    }

    json_value value(std::size_t depth) {
        if (depth > max_depth) {
            bad("nesting deeper than " + std::to_string(max_depth));
        }
        skip_ws();
        const char c = peek();
        switch (c) {
            case '{':
                return object(depth);
            case '[':
                return array(depth);
            case '"':
                return json_value::string(string());
            case 't':
                if (literal("true")) {
                    return json_value::boolean(true);
                }
                bad("bad literal at offset " + std::to_string(pos_));
            case 'f':
                if (literal("false")) {
                    return json_value::boolean(false);
                }
                bad("bad literal at offset " + std::to_string(pos_));
            case 'n':
                if (literal("null")) {
                    return json_value::null();
                }
                bad("bad literal at offset " + std::to_string(pos_));
            default:
                return number();
        }
    }

    json_value object(std::size_t depth) {
        expect('{');
        json_value v = json_value::object();
        skip_ws();
        if (peek() == '}') {
            ++pos_;
            return v;
        }
        while (true) {
            skip_ws();
            std::string key = string();
            skip_ws();
            expect(':');
            json_value member = value(depth + 1);
            // Keep the first binding of a duplicated key (our encoders never
            // emit duplicates; a foreign one must not silently override).
            if (v.find(key) == nullptr) {
                v.set(key, std::move(member));
            }
            skip_ws();
            const char c = peek();
            ++pos_;
            if (c == '}') {
                return v;
            }
            if (c != ',') {
                bad("expected ',' or '}' at offset " + std::to_string(pos_ - 1));
            }
        }
    }

    json_value array(std::size_t depth) {
        expect('[');
        json_value v = json_value::array();
        skip_ws();
        if (peek() == ']') {
            ++pos_;
            return v;
        }
        while (true) {
            v.items.push_back(value(depth + 1));
            skip_ws();
            const char c = peek();
            ++pos_;
            if (c == ']') {
                return v;
            }
            if (c != ',') {
                bad("expected ',' or ']' at offset " + std::to_string(pos_ - 1));
            }
        }
    }

    std::uint32_t hex4() {
        std::uint32_t v = 0;
        for (int i = 0; i < 4; ++i) {
            const char c = peek();
            ++pos_;
            v <<= 4;
            if (c >= '0' && c <= '9') {
                v |= static_cast<std::uint32_t>(c - '0');
            } else if (c >= 'a' && c <= 'f') {
                v |= static_cast<std::uint32_t>(c - 'a' + 10);
            } else if (c >= 'A' && c <= 'F') {
                v |= static_cast<std::uint32_t>(c - 'A' + 10);
            } else {
                bad("bad \\u escape at offset " + std::to_string(pos_ - 1));
            }
        }
        return v;
    }

    void append_utf8(std::string& out, std::uint32_t cp) {
        if (cp < 0x80) {
            out += static_cast<char>(cp);
        } else if (cp < 0x800) {
            out += static_cast<char>(0xc0 | (cp >> 6));
            out += static_cast<char>(0x80 | (cp & 0x3f));
        } else if (cp < 0x10000) {
            out += static_cast<char>(0xe0 | (cp >> 12));
            out += static_cast<char>(0x80 | ((cp >> 6) & 0x3f));
            out += static_cast<char>(0x80 | (cp & 0x3f));
        } else {
            out += static_cast<char>(0xf0 | (cp >> 18));
            out += static_cast<char>(0x80 | ((cp >> 12) & 0x3f));
            out += static_cast<char>(0x80 | ((cp >> 6) & 0x3f));
            out += static_cast<char>(0x80 | (cp & 0x3f));
        }
    }

    std::string string() {
        expect('"');
        std::string out;
        while (true) {
            const char c = peek();
            ++pos_;
            if (c == '"') {
                return out;
            }
            if (static_cast<unsigned char>(c) < 0x20) {
                bad("raw control character in string at offset " + std::to_string(pos_ - 1));
            }
            if (c != '\\') {
                out += c;
                continue;
            }
            const char esc = peek();
            ++pos_;
            switch (esc) {
                case '"':
                case '\\':
                case '/':
                    out += esc;
                    break;
                case 'b':
                    out += '\b';
                    break;
                case 'f':
                    out += '\f';
                    break;
                case 'n':
                    out += '\n';
                    break;
                case 'r':
                    out += '\r';
                    break;
                case 't':
                    out += '\t';
                    break;
                case 'u': {
                    std::uint32_t cp = hex4();
                    if (cp >= 0xd800 && cp < 0xdc00) {  // high surrogate
                        if (peek() != '\\') {
                            bad("unpaired surrogate at offset " + std::to_string(pos_));
                        }
                        ++pos_;
                        if (peek() != 'u') {
                            bad("unpaired surrogate at offset " + std::to_string(pos_));
                        }
                        ++pos_;
                        const std::uint32_t lo = hex4();
                        if (lo < 0xdc00 || lo >= 0xe000) {
                            bad("bad low surrogate at offset " + std::to_string(pos_));
                        }
                        cp = 0x10000 + ((cp - 0xd800) << 10) + (lo - 0xdc00);
                    } else if (cp >= 0xdc00 && cp < 0xe000) {
                        bad("unpaired low surrogate at offset " + std::to_string(pos_));
                    }
                    append_utf8(out, cp);
                    break;
                }
                default:
                    bad(std::string{"bad escape '\\"} + esc + "'");
            }
        }
    }

    json_value number() {
        const std::size_t start = pos_;
        bool integral = true;
        if (peek() == '-') {
            integral = false;
            ++pos_;
        }
        while (pos_ < text_.size()) {
            const char c = text_[pos_];
            if (c >= '0' && c <= '9') {
                ++pos_;
            } else if (c == '.' || c == 'e' || c == 'E' || c == '+' || c == '-') {
                integral = false;
                ++pos_;
            } else {
                break;
            }
        }
        const std::string token = text_.substr(start, pos_ - start);
        if (token.empty() || token == "-") {
            bad("bad number at offset " + std::to_string(start));
        }
        if (integral) {
            try {
                std::size_t used = 0;
                const std::uint64_t v = std::stoull(token, &used);
                if (used != token.size()) {
                    bad("bad number '" + token + "'");
                }
                return json_value::integer(v);
            } catch (const wire_error&) {
                throw;
            } catch (const std::exception&) {
                bad("integer out of range '" + token + "'");
            }
        }
        char* end = nullptr;
        const double v = std::strtod(token.c_str(), &end);
        if (end != token.c_str() + token.size()) {
            bad("bad number '" + token + "'");
        }
        json_value out;
        out.what = json_value::kind::number;
        out.real = v;
        return out;
    }

    const std::string& text_;
    std::size_t pos_ = 0;
};

void dump_string(std::string& out, const std::string& s) {
    out += '"';
    for (const char c : s) {
        switch (c) {
            case '"':
                out += "\\\"";
                break;
            case '\\':
                out += "\\\\";
                break;
            case '\n':
                out += "\\n";
                break;
            case '\r':
                out += "\\r";
                break;
            case '\t':
                out += "\\t";
                break;
            default:
                if (static_cast<unsigned char>(c) < 0x20) {
                    char buf[8];
                    std::snprintf(buf, sizeof buf, "\\u%04x",
                                  static_cast<unsigned>(static_cast<unsigned char>(c)));
                    out += buf;
                } else {
                    out += c;
                }
        }
    }
    out += '"';
}

void dump_into(std::string& out, const json_value& v) {
    switch (v.what) {
        case json_value::kind::null:
            out += "null";
            break;
        case json_value::kind::boolean:
            out += v.flag ? "true" : "false";
            break;
        case json_value::kind::integer:
            out += std::to_string(v.whole);
            break;
        case json_value::kind::number: {
            char buf[32];
            std::snprintf(buf, sizeof buf, "%.17g", v.real);
            out += buf;
            break;
        }
        case json_value::kind::string:
            dump_string(out, v.text);
            break;
        case json_value::kind::array:
            out += '[';
            for (std::size_t i = 0; i < v.items.size(); ++i) {
                if (i != 0) {
                    out += ',';
                }
                dump_into(out, v.items[i]);
            }
            out += ']';
            break;
        case json_value::kind::object:
            out += '{';
            for (std::size_t i = 0; i < v.members.size(); ++i) {
                if (i != 0) {
                    out += ',';
                }
                dump_string(out, v.members[i].first);
                out += ':';
                dump_into(out, v.members[i].second);
            }
            out += '}';
            break;
    }
}

}  // namespace

// ------------------------------------------------------------- value model --

json_value json_value::boolean(bool v) {
    json_value out;
    out.what = kind::boolean;
    out.flag = v;
    return out;
}

json_value json_value::integer(std::uint64_t v) {
    json_value out;
    out.what = kind::integer;
    out.whole = v;
    return out;
}

json_value json_value::string(std::string v) {
    json_value out;
    out.what = kind::string;
    out.text = std::move(v);
    return out;
}

json_value json_value::array() {
    json_value out;
    out.what = kind::array;
    return out;
}

json_value json_value::object() {
    json_value out;
    out.what = kind::object;
    return out;
}

json_value& json_value::set(const std::string& key, json_value v) {
    members.emplace_back(key, std::move(v));
    return *this;
}

const json_value* json_value::find(const std::string& key) const {
    for (const auto& [name, value] : members) {
        if (name == key) {
            return &value;
        }
    }
    return nullptr;
}

std::string dump(const json_value& v) {
    std::string out;
    dump_into(out, v);
    return out;
}

json_value parse_json(const std::string& text) { return parser(text).run(); }

// --------------------------------------------------------- field accessors --

const json_value& require(const json_value& obj, const std::string& key) {
    if (obj.what != json_value::kind::object) {
        bad("expected an object holding field '" + key + "'");
    }
    const json_value* v = obj.find(key);
    if (v == nullptr) {
        bad("missing field '" + key + "'");
    }
    return *v;
}

std::uint64_t u64_field(const json_value& obj, const std::string& key) {
    const json_value& v = require(obj, key);
    if (v.what != json_value::kind::integer) {
        bad("field '" + key + "' is not an integer");
    }
    return v.whole;
}

bool bool_field(const json_value& obj, const std::string& key) {
    const json_value& v = require(obj, key);
    if (v.what != json_value::kind::boolean) {
        bad("field '" + key + "' is not a boolean");
    }
    return v.flag;
}

std::string str_field(const json_value& obj, const std::string& key) {
    const json_value& v = require(obj, key);
    if (v.what != json_value::kind::string) {
        bad("field '" + key + "' is not a string");
    }
    return v.text;
}

json_value encode_f64(double v) {
    return json_value::string(engine::hex64(std::bit_cast<std::uint64_t>(v)));
}

double decode_f64(const json_value& v, const std::string& what) {
    std::uint64_t bits = 0;
    const char* end = v.text.data() + v.text.size();
    if (v.what != json_value::kind::string || v.text.size() != 16 ||
        std::from_chars(v.text.data(), end, bits, 16).ptr != end) {
        bad("'" + what + "' is not a 16-hex-char double");
    }
    return std::bit_cast<double>(bits);
}

double f64_field(const json_value& obj, const std::string& key) {
    return decode_f64(require(obj, key), key);
}

// ------------------------------------------------------------------ codecs --

namespace {

/// Schema visitor building a JSON object (a scenario, sweep spec or row):
/// integers as JSON integers, doubles as hex64 strings, enumerators by name,
/// lists as arrays laid out per schema::layout.
class json_writer {
 public:
    explicit json_writer(json_value& root) : stack_{&root} {}

    template <typename T>
    void field(const char* name, const T& v) {
        if constexpr (std::is_floating_point_v<T>) {
            put(name, encode_f64(v));
        } else if constexpr (std::is_same_v<T, bool>) {
            put(name, json_value::boolean(v));
        } else if constexpr (std::is_enum_v<T>) {
            // By name, never as a raw integer: the wire stays readable and an
            // enum renumbered by a future engine cannot silently alias.
            const char* text = schema::name_of(v);
            if (text == nullptr) {
                bad(std::string{"unencodable "} + name);
            }
            put(name, json_value::string(text));
        } else if constexpr (std::is_same_v<T, std::string>) {
            put(name, json_value::string(v));
        } else if constexpr (std::is_same_v<T, std::optional<double>>) {
            put(name, v ? encode_f64(*v) : json_value::null());
        } else {
            put(name, json_value::integer(static_cast<std::uint64_t>(v)));
        }
    }
    template <typename F>
    void group(const char* name, const char*, F&& fn) {
        open(name, json_value::object(), fn);
    }
    template <typename T, typename F>
    void list(const char* name, const char*, const std::vector<T>& items, schema::layout shape,
              std::size_t, F&& fn) {
        open(name, json_value::array(), [&] {
            stack_.back()->items.reserve(items.size());
            for (const T& item : items) {
                if (shape == schema::layout::flat) {
                    fn(item);
                } else {
                    open(name,
                         shape == schema::layout::tuple ? json_value::array()
                                                        : json_value::object(),
                         [&] { fn(item); });
                }
            }
        });
    }
    template <typename F>
    void block(const char*, const char*, bool present, F&& fn) {
        if (present) {
            fn();
        }
    }
    void tag(const char*) {}

 private:
    /// Append \p v to the open container: a named member or an array item.
    json_value& put(const char* name, json_value v) {
        json_value& top = *stack_.back();
        if (top.what == json_value::kind::object) {
            top.set(name, std::move(v));
            return top.members.back().second;
        }
        top.items.push_back(std::move(v));
        return top.items.back();
    }
    template <typename F>
    void open(const char* name, json_value container, F&& fn) {
        stack_.push_back(&put(name, std::move(container)));
        fn();
        stack_.pop_back();
    }

    std::vector<json_value*> stack_;  ///< open containers, innermost last
};

/// The inverse of json_writer. Members are looked up by name (unknown ones
/// are ignored); array items are consumed in order and must all be used.
/// Integers a field cannot hold (a street edge index past int32) throw.
class json_reader {
 public:
    explicit json_reader(const json_value& root) : stack_{{&root, 0, "document"}} {}

    template <typename T>
    void field(const char* name, T& v) {
        const std::string what = name;
        const json_value& item = take(what);
        if constexpr (std::is_floating_point_v<T>) {
            v = decode_f64(item, what);
        } else if constexpr (std::is_same_v<T, bool>) {
            v = expect(item, json_value::kind::boolean, what).flag;
        } else if constexpr (std::is_enum_v<T>) {
            const std::string& text = expect(item, json_value::kind::string, what).text;
            const auto& names = schema::names_for(v);
            const auto* entry = std::find_if(std::begin(names), std::end(names),
                                             [&](const auto& e) { return text == e.name; });
            if (entry == std::end(names)) {
                bad("unknown " + what + " '" + text + "'");
            }
            v = entry->value;
        } else if constexpr (std::is_same_v<T, std::string>) {
            v = expect(item, json_value::kind::string, what).text;
        } else if constexpr (std::is_same_v<T, std::optional<double>>) {
            v = item.what == json_value::kind::null ? std::nullopt
                                                    : std::optional{decode_f64(item, what)};
        } else {
            if (!schema::from_word(expect(item, json_value::kind::integer, what).whole, v)) {
                bad("field '" + what + "' is out of range (" + std::to_string(item.whole) +
                    ")");
            }
        }
    }
    template <typename F>
    void group(const char* name, const char*, F&& fn) {
        descend(take(name), json_value::kind::object, name, fn);
    }
    template <typename T, typename F>
    void list(const char* name, const char*, std::vector<T>& items, schema::layout shape,
              std::size_t min_items, F&& fn) {
        items.clear();
        descend(take(name), json_value::kind::array, name, [&] {
            items.reserve(stack_.back().node->items.size());
            while (stack_.back().cursor < stack_.back().node->items.size()) {
                if (shape == schema::layout::flat) {
                    fn(items.emplace_back());
                } else {
                    descend(take(name),
                            shape == schema::layout::tuple ? json_value::kind::array
                                                           : json_value::kind::object,
                            name, [&] { fn(items.emplace_back()); });
                }
            }
        });
        if (items.size() < min_items) {
            bad("field '" + std::string{name} + "' holds fewer than " +
                std::to_string(min_items) + " items");
        }
    }
    template <typename F>
    void block(const char* name, const char*, bool, F&& fn) {
        if (stack_.back().node->find(name) != nullptr) {
            fn();
        }
    }
    void tag(const char*) {}

 private:
    struct frame {
        const json_value* node;
        std::size_t cursor;  ///< next array item to take
        const char* name;
    };

    const json_value& take(const std::string& name) {
        frame& top = stack_.back();
        if (top.node->what == json_value::kind::object) {
            return require(*top.node, name);
        }
        if (top.cursor == top.node->items.size()) {
            bad("field '" + std::string{top.name} + "' is missing an element");
        }
        return top.node->items[top.cursor++];
    }
    static const json_value& expect(const json_value& item, json_value::kind want,
                                    const std::string& what) {
        if (item.what != want) {
            bad("field '" + what + "' has the wrong type");
        }
        return item;
    }
    template <typename F>
    void descend(const json_value& node, json_value::kind want, const char* name, F&& fn) {
        stack_.push_back({&expect(node, want, name), 0, name});
        fn();
        const bool leftover = node.what == json_value::kind::array &&
                              stack_.back().cursor != node.items.size();
        stack_.pop_back();
        if (leftover) {
            bad("field '" + std::string{name} + "' has too many elements");
        }
    }

    std::vector<frame> stack_;  ///< open containers, innermost last
};

/// The wire members of a sweep spec: the base scenario, the replica count,
/// then each non-empty axis (absent = not swept, so a one-point spec stays
/// one short line). street_blocks only matters to the topology axes, and is
/// sent only beside them.
template <typename Spec, typename V>
void visit_sweep_spec(Spec& spec, V& v) {
    v.group("base", nullptr, [&] { schema::visit_scenario(spec.base, v); });
    v.field("repetitions", spec.repetitions);
    v.field("standard_case", spec.standard_case);
    v.group("axes", nullptr, [&] {
        const auto axis = [&](const char* name, auto& values) {
            v.block(name, nullptr, !values.empty(), [&] {
                v.list(name, nullptr, values, schema::layout::flat, 0,
                       [&](auto& x) { v.field(name, x); });
            });
        };
        axis("n", spec.n);
        axis("c1", spec.c1);
        axis("radius", spec.radius);
        axis("speed", spec.speed);
        axis("speed_factor", spec.speed_factor);
        axis("model", spec.model);
        axis("mode", spec.mode);
        axis("gossip_p", spec.gossip_p);
        axis("num_sources", spec.num_sources);
        axis("num_messages", spec.num_messages);
        axis("block_ratio", spec.block_ratio);
        axis("blocked_fraction", spec.blocked_fraction);
    });
    v.block("street_blocks", nullptr,
            !spec.block_ratio.empty() || !spec.blocked_fraction.empty(),
            [&] { v.field("street_blocks", spec.street_blocks); });
}

/// The wire members of a sweep row: its point, then every statistic.
template <typename Row, typename V>
void visit_sweep_row(Row& row, V& v) {
    const auto doubles = [&](const char* name, auto& values) {
        v.list(name, nullptr, values, schema::layout::flat, 0,
               [&](auto& x) { v.field(name, x); });
    };
    v.field("index", row.point.index);
    v.field("label", row.point.label);
    v.group("scenario", nullptr, [&] { schema::visit_scenario(row.point.sc, v); });
    doubles("times", row.times);
    v.group("summary", nullptr, [&] {
        v.field("count", row.summary.count);
        v.field("mean", row.summary.mean);
        v.field("stddev", row.summary.stddev);
        v.field("min", row.summary.min);
        v.field("max", row.summary.max);
        v.field("median", row.summary.median);
        v.field("p25", row.summary.p25);
        v.field("p75", row.summary.p75);
    });
    v.group("mean_ci", nullptr, [&] {
        v.field("lo", row.mean_ci.lo);
        v.field("hi", row.mean_ci.hi);
    });
    v.field("completed_fraction", row.completed_fraction);
    doubles("message_mean_times", row.message_mean_times);
    doubles("message_completed_fraction", row.message_completed_fraction);
    v.field("mean_cz_step", row.mean_cz_step);
    v.field("max_cz_step", row.max_cz_step);
    v.field("cz_fraction", row.cz_fraction);
    v.field("suburb_diameter", row.suburb_diameter);
    v.field("wall_seconds", row.wall_seconds);
}

}  // namespace

json_value encode_scenario(const core::scenario& sc) {
    // intra_threads is not in the scenario schema: like --threads it is a
    // wall-clock-only knob outside the fingerprint, and the server picks its
    // own execution shape.
    json_value v = json_value::object();
    json_writer writer(v);
    schema::visit_scenario(sc, writer);
    return v;
}

core::scenario decode_scenario(const json_value& v) {
    core::scenario sc;
    json_reader reader(v);
    schema::visit_scenario(sc, reader);
    return sc;
}

json_value encode_sweep_spec(const engine::sweep_spec& spec) {
    json_value v = json_value::object();
    json_writer writer(v);
    visit_sweep_spec(spec, writer);
    return v;
}

engine::sweep_spec decode_sweep_spec(const json_value& v) {
    engine::sweep_spec spec;
    json_reader reader(v);
    visit_sweep_spec(spec, reader);
    return spec;
}

json_value encode_sweep_row(const engine::sweep_row& row) {
    json_value v = json_value::object();
    json_writer writer(v);
    visit_sweep_row(row, writer);
    return v;
}

engine::sweep_row decode_sweep_row(const json_value& v) {
    engine::sweep_row row;
    json_reader reader(v);
    visit_sweep_row(row, reader);
    return row;
}

// ----------------------------------------------------------------- framing --

bool send_line(int fd, const json_value& v) {
    std::string line = dump(v);
    line += '\n';
    std::size_t sent = 0;
    while (sent < line.size()) {
        const ssize_t n = ::send(fd, line.data() + sent, line.size() - sent, MSG_NOSIGNAL);
        if (n <= 0) {
            if (n < 0 && errno == EINTR) {
                continue;
            }
            return false;
        }
        sent += static_cast<std::size_t>(n);
    }
    return true;
}

std::optional<std::string> line_reader::next() {
    while (true) {
        const std::size_t end = buffer_.find('\n', scanned_);
        if (end != std::string::npos) {
            std::string line = buffer_.substr(begin_, end - begin_);
            begin_ = scanned_ = end + 1;
            return line;
        }
        buffer_.erase(0, begin_);  // only the unterminated tail survives
        begin_ = 0;
        scanned_ = buffer_.size();
        char chunk[1 << 16];
        const ssize_t n = ::recv(fd_, chunk, sizeof chunk, 0);
        if (n < 0 && errno == EINTR) {
            continue;
        }
        if (n <= 0) {
            return std::nullopt;
        }
        buffer_.append(chunk, static_cast<std::size_t>(n));
    }
}

}  // namespace manhattan::service
