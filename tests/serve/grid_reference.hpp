// grid_reference.hpp — per-point oracle for sweep and partition_explore.
//
// Rebuilds the lanes of a grid response from the matching point
// requests, each served by a separate engine (the tests use one with
// parallelism 1 and caching off): a sweep lane is the sweep's target
// with `param` set to the lane's x, and a partition_explore cell is the
// `chiplet` request for the base configuration rescaled to the lane's
// total area at that split.  A lane whose point request errors is null.
// The grid (`xs`) is taken from the response under test; the rebuilt
// response must then equal it byte for byte.

#pragma once

#include "chiplet/model.hpp"
#include "serve/engine.hpp"

#include <string>
#include <string_view>
#include <vector>

namespace silicon::serve::grid_reference {

/// Sets the dotted-path member `path` of the object `doc` to `x`,
/// creating intermediate objects the document leaves to defaults.
inline void set_path(json::value& doc, std::string_view path, double x) {
    json::value* node = &doc;
    for (;;) {
        const std::size_t dot = path.find('.');
        const std::string head{path.substr(0, dot)};
        if (dot == std::string_view::npos) {
            node->as_object().set(head, json::value{x});
            return;
        }
        json::value* child = node->as_object().find(head);
        if (child == nullptr) {
            child = &node->as_object().set(head, json::value{json::object{}});
        }
        node = child;
        path.remove_prefix(dot + 1);
    }
}

/// The lane value of one point request: its result's `metric` member,
/// or null when the request errors.
inline json::value point_lane(engine& reference, const json::value& point,
                              const std::string& metric) {
    const json::value reply =
        json::parse(reference.handle_line(json::dump(point)));
    const json::value* result = reply.as_object().find("result");
    if (result == nullptr) {
        return json::value{nullptr};
    }
    const json::value* m = result->as_object().find(metric);
    return m != nullptr ? *m : json::value{nullptr};
}

/// The point request behind every lane of a sweep `response`.
inline std::vector<json::value> sweep_points(const std::string& sweep_line,
                                             const std::string& response) {
    const json::value sweep = json::parse(sweep_line);
    const json::value reply = json::parse(response);
    const std::string& param = sweep.as_object().find("param")->as_string();
    std::vector<json::value> points;
    for (const json::value& x : reply.as_object()
                                    .find("result")
                                    ->as_object()
                                    .find("xs")
                                    ->as_array()) {
        json::value point = *sweep.as_object().find("target");
        set_path(point, param, x.as_number());
        points.push_back(std::move(point));
    }
    return points;
}

/// `response` with every `ys` lane rebuilt from its point request;
/// "not ok" when the response carries no result.
inline std::string sweep_reference(engine& reference,
                                   const std::string& sweep_line,
                                   const std::string& response) {
    json::value reply = json::parse(response);
    json::value* result = reply.as_object().find("result");
    if (result == nullptr) {
        return "not ok";
    }
    const std::string metric =
        result->as_object().find("metric")->as_string();
    json::array ys;
    for (const json::value& point : sweep_points(sweep_line, response)) {
        ys.push_back(point_lane(reference, point, metric));
    }
    result->as_object().set("ys", json::value{std::move(ys)});
    return json::dump(reply);
}

/// The chiplet point request of every explore cell, row by split.
inline std::vector<std::vector<json::value>> explore_points(
    const std::string& explore_line, const std::string& response) {
    const json::value explore = json::parse(explore_line);
    const json::value reply = json::parse(response);
    const json::object& result =
        reply.as_object().find("result")->as_object();

    json::object base;
    chiplet_request defaults;
    chiplet::chiplet_spec areas;
    areas.logic_area_mm2 = defaults.logic_area_mm2;
    areas.memory_area_mm2 = defaults.memory_area_mm2;
    areas.io_area_mm2 = defaults.io_area_mm2;
    for (const json::object::member& m : explore.as_object().members()) {
        if (m.first == "op" || m.first == "id" || m.first == "splits" ||
            m.first == "area_from_mm2" || m.first == "area_to_mm2" ||
            m.first == "count" || m.first == "scale") {
            continue;
        }
        base.set(m.first, m.second);
        if (m.first == "logic_area_mm2") {
            areas.logic_area_mm2 = m.second.as_number();
        } else if (m.first == "memory_area_mm2") {
            areas.memory_area_mm2 = m.second.as_number();
        } else if (m.first == "io_area_mm2") {
            areas.io_area_mm2 = m.second.as_number();
        }
    }
    base.set("op", "chiplet");

    std::vector<std::vector<json::value>> rows;
    for (const json::value& split : result.find("splits")->as_array()) {
        std::vector<json::value> row;
        for (const json::value& x : result.find("xs")->as_array()) {
            const chiplet::chiplet_spec scaled =
                chiplet::scaled_to_total(areas, x.as_number());
            json::object point = base;
            point.set("chiplets", split);
            point.set("logic_area_mm2", scaled.logic_area_mm2);
            point.set("memory_area_mm2", scaled.memory_area_mm2);
            point.set("io_area_mm2", scaled.io_area_mm2);
            row.emplace_back(std::move(point));
        }
        rows.push_back(std::move(row));
    }
    return rows;
}

/// `response` with every explore cost cell rebuilt from its chiplet
/// point request; "not ok" when the response carries no result.
inline std::string explore_reference(engine& reference,
                                     const std::string& explore_line,
                                     const std::string& response) {
    json::value reply = json::parse(response);
    json::value* result = reply.as_object().find("result");
    if (result == nullptr) {
        return "not ok";
    }
    json::array ys;
    for (const std::vector<json::value>& cells :
         explore_points(explore_line, response)) {
        json::array row;
        for (const json::value& point : cells) {
            row.push_back(
                point_lane(reference, point, "cost_per_good_system_usd"));
        }
        ys.emplace_back(std::move(row));
    }
    result->as_object().set("ys", json::value{std::move(ys)});
    return json::dump(reply);
}

}  // namespace silicon::serve::grid_reference
