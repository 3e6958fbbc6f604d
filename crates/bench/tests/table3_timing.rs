//! Pins every field of the timing simulator's Table III reports.
//!
//! Each of the eight published configurations (`paper::table3()`) runs
//! through `timing::simulate` on the Arria 10 at its published fmax, with
//! memory-controller coalescing on and off, on the problem
//! `repro::problem` builds for the scale. Every `TimingReport` field must
//! equal the pinned value exactly, f64s bit for bit and both channels'
//! `ChannelStats` included, so a faster replay of the same request stream
//! has to reproduce it to the last count. The pinned values were generated
//! by the per-request replay. The full-scale pins take a few seconds in
//! release:
//!
//! ```text
//! cargo test --release -p stencil-bench --test table3_timing -- --ignored
//! ```

use ddr_model::ChannelStats;
use fpga_sim::{timing, FpgaDevice, TimingOptions, TimingReport};
use perf_model::paper;
use stencil_bench::repro::{self, Scale};
use stencil_core::{BlockConfig, Dim};

/// The names of [`fields`]' entries, in order.
const FIELDS: [&str; 27] = [
    "fmax_mhz",
    "passes",
    "kernel_cycles",
    "seconds",
    "cell_updates",
    "gcell_per_s",
    "gflop_per_s",
    "gbyte_per_s",
    "compute_cycles",
    "read_lsu_cycles",
    "write_lsu_cycles",
    "ddr_bound_rows",
    "read_stats.requests",
    "read_stats.split_requests",
    "read_stats.lines_charged",
    "read_stats.row_misses",
    "read_stats.turnarounds",
    "read_stats.useful_bytes",
    "read_stats.busy_cycles",
    "write_stats.requests",
    "write_stats.split_requests",
    "write_stats.lines_charged",
    "write_stats.row_misses",
    "write_stats.turnarounds",
    "write_stats.useful_bytes",
    "write_stats.busy_cycles",
    "pipeline_efficiency",
];

/// Every field of a report in declaration order, f64s as their bits. The
/// patterns name every field, so a field added to either struct fails to
/// compile here until it is pinned.
fn fields(r: &TimingReport) -> Vec<u64> {
    let TimingReport {
        fmax_mhz,
        passes,
        kernel_cycles,
        seconds,
        cell_updates,
        gcell_per_s,
        gflop_per_s,
        gbyte_per_s,
        compute_cycles,
        read_lsu_cycles,
        write_lsu_cycles,
        ddr_bound_rows,
        read_stats,
        write_stats,
        pipeline_efficiency,
    } = r;
    let mut out = vec![
        fmax_mhz.to_bits(),
        *passes as u64,
        *kernel_cycles,
        seconds.to_bits(),
        *cell_updates,
        gcell_per_s.to_bits(),
        gflop_per_s.to_bits(),
        gbyte_per_s.to_bits(),
        *compute_cycles,
        *read_lsu_cycles,
        *write_lsu_cycles,
        *ddr_bound_rows,
    ];
    for stats in [read_stats, write_stats] {
        let ChannelStats {
            requests,
            split_requests,
            lines_charged,
            row_misses,
            turnarounds,
            useful_bytes,
            busy_cycles,
        } = *stats;
        out.extend([
            requests,
            split_requests,
            lines_charged,
            row_misses,
            turnarounds,
            useful_bytes,
            busy_cycles,
        ]);
    }
    out.push(pipeline_efficiency.to_bits());
    out
}

/// Simulates every Table III row at `scale` with coalescing on and off and
/// compares each report with `pins`, one entry per row in
/// `paper::table3()` order.
fn check(scale: Scale, pins: &[[[u64; 27]; 2]; 8]) {
    let device = FpgaDevice::arria10_gx1150();
    let rows = paper::table3();
    assert_eq!(rows.len(), pins.len());
    for (row, pin) in rows.iter().zip(pins) {
        let config = match row.dim {
            Dim::D2 => BlockConfig::new_2d(row.rad, row.bsize.0, row.parvec, row.partime),
            Dim::D3 => {
                BlockConfig::new_3d(row.rad, row.bsize.0, row.bsize.1, row.parvec, row.partime)
            }
        }
        .expect("every published configuration is valid");
        let (dims, iters) = repro::problem(&config, scale);
        for (coalescing, want) in [true, false].into_iter().zip(pin) {
            let opts = TimingOptions {
                coalescing,
                ..TimingOptions::at_fmax(row.fmax_mhz)
            };
            let got = fields(&timing::simulate(&device, &config, dims, iters, &opts));
            assert_eq!(got.len(), FIELDS.len());
            for ((name, got), want) in FIELDS.iter().zip(got).zip(want) {
                assert_eq!(
                    got, *want,
                    "{:?} rad {} coalescing {coalescing}: {name}",
                    row.dim, row.rad
                );
            }
        }
    }
}

#[test]
fn smoke_scale_reports_are_pinned() {
    check(Scale::Smoke, &SMOKE);
}

#[test]
#[ignore = "replays the paper's full-size problems; run in release with --ignored"]
fn full_scale_reports_are_pinned() {
    check(Scale::Full, &FULL);
}

/// `Scale::Smoke` pins: one entry per Table III row, each holding the
/// coalescing-on and coalescing-off [`fields`].
#[rustfmt::skip]
const SMOKE: [[[u64; 27]; 2]; 8] = [
    // 2D rad 1: coalescing on, off
    [
        [
            0x40757c28f5c28f5c, 1, 586138, 0x3f5f367b226f4934, 148340736,
            0x4053776b35b0ad01, 0x4085e6589c66c2a1, 0x4083776b35b0ad01,
            524288, 524288, 515072, 0,
            524288, 0, 262656, 2013, 0, 16777216, 270708,
            515072, 0, 257536, 2012, 0, 16482304, 265584,
            0x3fec9f91f37f1b93,
        ],
        [
            0x40757c28f5c28f5c, 1, 761790, 0x3f63cad3fc367079, 148340736,
            0x404eb2f16a440633, 0x408144a7cbc6437d, 0x407eb2f16a440633,
            524288, 524288, 515072, 1024,
            524288, 0, 524288, 2013, 0, 16777216, 532340,
            515072, 0, 515072, 2012, 0, 16482304, 523120,
            0x3fe605fe6999654b,
        ],
    ],
    // 2D rad 2: coalescing on, off
    [
        [
            0x407427851eb851ec, 1, 1225359, 0x3f70623759267684, 168935424,
            0x40451e0bf6637bc7, 0x40866fecb5c9b383, 0x40751e0bf6637bc7,
            1048576, 1048576, 1005568, 0,
            1048576, 0, 262656, 1965, 0, 16777216, 270516,
            1005568, 0, 251392, 1964, 0, 16089088, 259248,
            0x3feb622319449ee6,
        ],
        [
            0x407427851eb851ec, 1, 1473743, 0x3f7389e2fe083447, 168935424,
            0x4041b51d8081ed73, 0x4082d06f588a0c4a, 0x4071b51d8081ed73,
            1048576, 1048576, 1005568, 1024,
            1048576, 0, 1048576, 1965, 0, 16777216, 1056436,
            1005568, 0, 1005568, 1964, 0, 16089088, 1013424,
            0x3fe6c4a6d392e609,
        ],
    ],
    // 2D rad 3: coalescing on, off
    [
        [
            0x4072ec0000000000, 1, 1225359, 0x3f7165c06ce6f083, 112623616,
            0x403a84060f7de93d, 0x4084b724bc1a5e38, 0x406a84060f7de93d,
            1048576, 1048576, 1005568, 0,
            1048576, 0, 262656, 1965, 0, 16777216, 270516,
            1005568, 0, 251392, 1964, 0, 16089088, 259248,
            0x3feb622319449ee6,
        ],
        [
            0x4072ec0000000000, 1, 1388677, 0x3f739b677ff8f7a4, 112623616,
            0x4037870f48416bda, 0x40826183f0731c42, 0x4067870f48416bda,
            1048576, 1048576, 1005568, 1024,
            1048576, 0, 1048576, 1965, 0, 16777216, 1056436,
            1005568, 0, 1005568, 1964, 0, 16089088, 1013424,
            0x3fe829b2541f7294,
        ],
    ],
    // 2D rad 4: coalescing on, off
    [
        [
            0x4072d33333333333, 1, 1229783, 0x3f718afe438829de, 88309760,
            0x40349e727d6d002a, 0x408543661158682b, 0x40649e727d6d002a,
            1048576, 1048576, 1003520, 0,
            1048576, 0, 262144, 1961, 0, 16777216, 269988,
            1003520, 0, 250880, 1960, 0, 16056320, 258720,
            0x3feb48eb40e382e7,
        ],
        [
            0x4072d33333333333, 1, 1386448, 0x3f73ac653dadf071, 88309760,
            0x403262d529299050, 0x4082f5ebd272dcd2, 0x406262d529299050,
            1048576, 1048576, 1003520, 1024,
            1048576, 0, 1048576, 1961, 0, 16777216, 1056420,
            1003520, 0, 1003520, 1960, 0, 16056320, 1011360,
            0x3fe833a43119c53d,
        ],
    ],
    // 3D rad 1: coalescing on, off
    [
        [
            0x4071e9c28f5c28f6, 1, 2744202, 0x3f8404c0bae8a2ed, 248020992,
            0x40395fb10c90f49c, 0x40749dbfda35c6bf, 0x40695fb10c90f49c,
            1572864, 2359296, 2004480, 49152,
            1572864, 786432, 1622016, 11520, 0, 100663296, 1668096,
            1336320, 668160, 1292160, 10368, 0, 85524480, 1333632,
            0x3fe257517c8cfa1a,
        ],
        [
            0x4071e9c28f5c28f6, 1, 2944512, 0x3f85732cb0c6a761, 248020992,
            0x4037ae3d3fbdc015, 0x40733d91c3ca2c11, 0x4067ae3d3fbdc015,
            1572864, 2359296, 2004480, 98304,
            1572864, 786432, 2359296, 11520, 0, 100663296, 2405376,
            1336320, 668160, 2004480, 10368, 0, 85524480, 2045952,
            0x3fe117e76da35265,
        ],
    ],
    // 3D rad 2: coalescing on, off
    [
        [
            0x40706e147ae147ae, 1, 1320054, 0x3f756325db828c16, 55590912,
            0x40254b0542e99582, 0x4070a29c1c467cce, 0x40554b0542e99582,
            786432, 1179648, 898560, 5760,
            786432, 393216, 811008, 5760, 0, 50331648, 834048,
            599040, 299520, 579456, 4608, 0, 38338560, 597888,
            0x3fe31071eb84bd1c,
        ],
        [
            0x40706e147ae147ae, 1, 1338301, 0x3f75abee78e2d753, 55590912,
            0x402503821ec3a42b, 0x40706abda808d842, 0x405503821ec3a42b,
            786432, 1179648, 898560, 10368,
            786432, 393216, 1179648, 5760, 0, 50331648, 1202688,
            599040, 299520, 898560, 4608, 0, 38338560, 916992,
            0x3fe2cde71e87c909,
        ],
    ],
    // 3D rad 3: coalescing on, off
    [
        [
            0x406feb851eb851ec, 1, 1320054, 0x3f75fe352642549f, 37060608,
            0x401b9bdc6a97890a, 0x406fec36db3f3674, 0x404b9bdc6a97890a,
            786432, 1179648, 898560, 5760,
            786432, 393216, 811008, 5760, 0, 50331648, 834048,
            599040, 299520, 579456, 4608, 0, 38338560, 597888,
            0x3fe31071eb84bd1c,
        ],
        [
            0x406feb851eb851ec, 1, 1333325, 0x3f7634b3ad88ab7c, 37060608,
            0x401b581b8cbb9c55, 0x406f9ddfdab8ecc2, 0x404b581b8cbb9c55,
            786432, 1179648, 898560, 10368,
            786432, 393216, 1179648, 5760, 0, 50331648, 1202688,
            599040, 299520, 898560, 4608, 0, 38338560, 916992,
            0x3fe2dfde4feecb2b,
        ],
    ],
    // 3D rad 4: coalescing on, off
    [
        [
            0x406e58a3d70a3d71, 1, 1313833, 0x3f76fc717f1207d8, 27795456,
            0x4013cfdf3d777d8e, 0x406e564dd61ef841, 0x4043cfdf3d777d8e,
            786432, 1179648, 898560, 5760,
            786432, 393216, 811008, 5760, 0, 50331648, 834048,
            599040, 299520, 579456, 4608, 0, 38338560, 597888,
            0x3fe3278dcd08b011,
        ],
        [
            0x406e58a3d70a3d71, 1, 1319224, 0x3f7713ba6dbfa032, 27795456,
            0x4013bbe1b10a8aeb, 0x406e37b1971824b8, 0x4043bbe1b10a8aeb,
            786432, 1179648, 898560, 8448,
            786432, 393216, 1179648, 5760, 0, 50331648, 1202688,
            599040, 299520, 898560, 4608, 0, 38338560, 916992,
            0x3fe31383fc613689,
        ],
    ],
];

/// `Scale::Full` pins, laid out as [`SMOKE`].
#[rustfmt::skip]
const FULL: [[[u64; 27]; 2]; 8] = [
    // 2D rad 1: coalescing on, off
    [
        [
            0x40757c28f5c28f5c, 28, 999079284, 0x40074ba0dcd3d6ae, 259081216000,
            0x40563e3bce595cbf, 0x4089060348248857, 0x40863e3bce595cbf,
            923009024, 923009024, 906784256, 0,
            923009024, 0, 462405888, 5401200, 0, 29536288768, 484010688,
            906784256, 0, 454293504, 5337836, 0, 29017096192, 475644848,
            0x3fed90421586d226,
        ],
        [
            0x40757c28f5c28f5c, 28, 1318344608, 0x400eb9b2a24921f3, 259081216000,
            0x4050dd438f36fb20, 0x4082f8ec011dda84, 0x4080dd438f36fb20,
            923009024, 923009024, 906784256, 1802752,
            923009024, 0, 923009024, 5401200, 0, 29536288768, 944613824,
            906784256, 0, 906784256, 5337836, 0, 29017096192, 928135600,
            0x3fe667715320182e,
        ],
    ],
    // 2D rad 2: coalescing on, off
    [
        [
            0x407427851eb851ec, 24, 1677034776, 0x4014d2522d85e501, 246866944000,
            0x4047b66e3fea019c, 0x408931d523e8a1b6, 0x4077b66e3fea019c,
            1544552448, 1544552448, 1481201664, 0,
            1544552448, 0, 386892288, 4519152, 0, 24712839168, 404968896,
            1481201664, 0, 371054592, 4395432, 0, 23699226624, 388636320,
            0x3fed78d94493d044,
        ],
        [
            0x407427851eb851ec, 24, 2050054896, 0x401972d7a55b1b96, 246866944000,
            0x404366b634c142c5, 0x40849d21980d56f1, 0x407366b634c142c5,
            1544552448, 1544552448, 1481201664, 1508352,
            1544552448, 0, 1544552448, 4519152, 0, 24712839168, 1562629056,
            1481201664, 0, 1481201664, 4395432, 0, 23699226624, 1498783392,
            0x3fe81c0459a1ad0b,
        ],
    ],
    // 2D rad 3: coalescing on, off
    [
        [
            0x4072ec0000000000, 36, 2515552164, 0x4020a1e602f27b9f, 246866944000,
            0x403daf5e9af8c62c, 0x40873101e9125ad2, 0x406daf5e9af8c62c,
            2316828672, 2316828672, 2221802496, 0,
            2316828672, 0, 580338432, 6778728, 0, 37069258752, 607453344,
            2221802496, 0, 556581888, 6593148, 0, 35548839936, 582954480,
            0x3fed78d94493d044,
        ],
        [
            0x4072ec0000000000, 36, 2889364464, 0x40231a13961bcd14, 246866944000,
            0x4039d8f0b448c3cd, 0x4084317c0cd8d8f8, 0x4069d8f0b448c3cd,
            2316828672, 2316828672, 2221802496, 2262528,
            2316828672, 0, 2316828672, 6778728, 0, 37069258752, 2343943584,
            2221802496, 0, 2221802496, 6593148, 0, 35548839936, 2248175088,
            0x3fe9a8bb5ccab361,
        ],
    ],
    // 2D rad 4: coalescing on, off
    [
        [
            0x4072d33333333333, 46, 3208618956, 0x402552efbf5e0e3b, 245862400000,
            0x40370f49d3514742, 0x4087c7c421ebd17c, 0x40670f49d3514742,
            2954362880, 2954362880, 2827417600, 0,
            2954362880, 0, 738590720, 8632820, 0, 47269806080, 773122000,
            2827417600, 0, 706854400, 8384880, 0, 45238681600, 740393920,
            0x3fed76da55eebdb7,
        ],
        [
            0x4072d33333333333, 46, 3666538882, 0x40285d56ee673ebe, 245862400000,
            0x40342e92f1d01582, 0x4084d007895e962e, 0x40642e92f1d01582,
            2954362880, 2954362880, 2827417600, 2885120,
            2954362880, 0, 2954362880, 8632820, 0, 47269806080, 2988894160,
            2827417600, 0, 2827417600, 8384880, 0, 45238681600, 2860957120,
            0x3fe9c8d059e3248f,
        ],
    ],
    // 3D rad 1: coalescing on, off
    [
        [
            0x4071e9c28f5c28f6, 84, 3790840452, 0x402a7c8ebf642b36, 337153536000,
            0x4039755e2c7f867a, 0x4074af5c84279d43, 0x4069755e2c7f867a,
            2155216896, 3232825344, 2746638720, 67350528,
            2155216896, 1077608448, 2222567424, 45017280, 0, 137933881344, 2402636544,
            1831092480, 915546240, 1892011968, 41743296, 0, 117189918720, 2058985152,
            0x3fe2316b90c6011b,
        ],
        [
            0x4071e9c28f5c28f6, 84, 4119426864, 0x402cc78b544cc62a, 337153536000,
            0x40376e1dce956a03, 0x4073097837d96622, 0x40676e1dce956a03,
            2155216896, 3232825344, 2746638720, 134701056,
            2155216896, 1077608448, 3232825344, 45017280, 0, 137933881344, 3412894464,
            1831092480, 915546240, 2746638720, 41743296, 0, 117189918720, 2913611904,
            0x3fe0bdebb2189332,
        ],
    ],
    // 3D rad 2: coalescing on, off
    [
        [
            0x40706e147ae147ae, 167, 8451409915, 0x40401762f44cf3f4, 352654848000,
            0x4025ea71b3d9d926, 0x40711f28d48231a6, 0x4055ea71b3d9d926,
            4998905856, 7498358784, 5711640480, 62997744,
            4998905856, 2499452928, 5155121664, 101703000, 0, 319929974784, 5561933664,
            3807760320, 1903880160, 3933988272, 87406464, 0, 243696660480, 4283614128,
            0x3fe2ed77d286b647,
        ],
        [
            0x40706e147ae147ae, 167, 8699709356, 0x404090497cb7935a, 352654848000,
            0x40254a7a2c917a37, 0x4070a22f72d1a77b, 0x40554a7a2c917a37,
            4998905856, 7498358784, 5711640480, 126692880,
            4998905856, 2499452928, 7498358784, 101703000, 0, 319929974784, 7905170784,
            3807760320, 1903880160, 5711640480, 87406464, 0, 243696660480, 6061266336,
            0x3fe2632c4819b40d,
        ],
    ],
    // 3D rad 3: coalescing on, off
    [
        [
            0x406feb851eb851ec, 250, 12651435250, 0x4048cbf8b7c16123, 352654848000,
            0x401c7190fe2ac55e, 0x407071a7d2f0ba1a, 0x404c7190fe2ac55e,
            7483392000, 11225088000, 8550360000, 94308000,
            7483392000, 3741696000, 7717248000, 152250000, 0, 478937088000, 8326248000,
            5700240000, 2850120000, 5889204000, 130848000, 0, 364815360000, 6412596000,
            0x3fe2ed9cb02c4153,
        ],
        [
            0x406feb851eb851ec, 250, 12920161000, 0x404952abd2515afa, 352654848000,
            0x401bda4458bf8fbc, 0x40701a2f834ebf19, 0x404bda4458bf8fbc,
            7483392000, 11225088000, 8550360000, 189660000,
            7483392000, 3741696000, 11225088000, 152250000, 0, 478937088000, 11834088000,
            5700240000, 2850120000, 8550360000, 130848000, 0, 364815360000, 9073752000,
            0x3fe288d4142555ba,
        ],
    ],
    // 3D rad 4: coalescing on, off
    [
        [
            0x406e58a3d70a3d71, 334, 16765740552, 0x405148207c02b823, 352654848000,
            0x401467fd0ffa6eb7, 0x406f3f3b80777988, 0x404467fd0ffa6eb7,
            9997811712, 14996717568, 11423280960, 125995488,
            9997811712, 4998905856, 10310243328, 203406000, 0, 639859949568, 11123867328,
            7615520640, 3807760320, 7867976544, 174812928, 0, 487393320960, 8567228256,
            0x3fe31515d9779bb1,
        ],
        [
            0x406e58a3d70a3d71, 334, 16876458212, 0x4051655091d717e6, 352654848000,
            0x401445bfe2e6b147, 0x406f0acdd3713f75, 0x404445bfe2e6b147,
            9997811712, 14996717568, 11423280960, 228512112,
            9997811712, 4998905856, 14996717568, 203406000, 0, 639859949568, 15810341568,
            7615520640, 3807760320, 11423280960, 174812928, 0, 487393320960, 12122532672,
            0x3fe2f5096ec91e9a,
        ],
    ],
];
