/// \file mandelbrot_render.cpp
/// The paper's first evaluation application, end to end on the real
/// (thread-backed) runtime: render a Mandelbrot image with hierarchical
/// dynamic loop self-scheduling, verify the result against a serial
/// render, and write a PPM.
///
/// One command line, wrapped here:
///
///   $ ./mandelbrot_render --inter GSS --intra STATIC --nodes 2 --rpn 4
///       --width 512 --height 512 --out mandelbrot.ppm

#include <fstream>
#include <iostream>

#include "apps/mandelbrot.hpp"
#include "core/hdls.hpp"
#include "util/cli.hpp"

int main(int argc, char** argv) {
    using namespace hdls;
    util::ArgParser cli("mandelbrot_render",
                        "Hierarchically self-scheduled Mandelbrot rendering (paper app #1)");
    cli.add_string("inter", "GSS", "inter-node DLS technique");
    cli.add_string("intra", "GSS", "intra-node DLS technique");
    cli.add_string("approach", "MPI+MPI", "MPI+MPI or MPI+OpenMP");
    cli.add_int("nodes", 2, "simulated compute nodes");
    cli.add_int("rpn", 4, "workers per node");
    cli.add_int("width", 384, "image width");
    cli.add_int("height", 384, "image height");
    cli.add_int("max-iter", 256, "escape iteration limit");
    cli.add_string("out", "", "write a PPM (P2) image to this path");
    try {
        if (!cli.parse(argc, argv)) {
            return 0;
        }
        const auto inter = dls::technique_from_string(cli.get_string("inter"));
        const auto intra = dls::technique_from_string(cli.get_string("intra"));
        if (!inter || !intra) {
            std::cerr << "unknown technique (try STATIC, SS, GSS, TSS, FAC2, ...)\n";
            return 2;
        }
        const auto approach = core::parse_approach(cli.get_string("approach"));
        if (!approach) {
            std::cerr << "bad --approach '" << cli.get_string("approach") << "'\n";
            return 2;
        }

        apps::MandelbrotConfig mcfg;
        mcfg.width = static_cast<int>(cli.get_int("width"));
        mcfg.height = static_cast<int>(cli.get_int("height"));
        mcfg.max_iter = static_cast<int>(cli.get_int("max-iter"));

        core::ClusterShape shape{static_cast<int>(cli.get_int("nodes")),
                                 static_cast<int>(cli.get_int("rpn"))};
        core::HierConfig cfg;
        cfg.inter = *inter;
        cfg.intra = *intra;

        std::cout << "Rendering " << mcfg.width << "x" << mcfg.height << " (max_iter "
                  << mcfg.max_iter << ") with " << core::approach_name(*approach) << " "
                  << dls::technique_name(*inter) << "+" << dls::technique_name(*intra)
                  << " on " << shape.nodes << "x" << shape.workers_per_node << " workers\n";

        apps::MandelbrotImage image(mcfg);
        const auto report = parallel_for(shape, *approach, cfg, mcfg.pixels(),
                                         [&](std::int64_t b, std::int64_t e) {
                                             image.compute_range(b, e);
                                         });
        report.print(std::cout);

        // Correctness: identical to a serial render, pixel for pixel.
        apps::MandelbrotImage serial(mcfg);
        serial.compute_range(0, mcfg.pixels());
        std::cout << "serial parity: "
                  << (image.checksum() == serial.checksum() ? "OK" : "FAILED") << "\n";

        if (const std::string out = cli.get_string("out"); !out.empty()) {
            std::ofstream ofs(out);
            image.write_ppm(ofs);
            std::cout << "wrote " << out << "\n";
        }
        return image.checksum() == serial.checksum() ? 0 : 1;
    } catch (const std::exception& e) {
        std::cerr << e.what() << "\n";
        return 2;
    }
}
