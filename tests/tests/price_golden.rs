//! Prices are the same numbers. The TABLA and DECO schedulers were
//! rewritten from hash-map bookkeeping to array passes over the fragment
//! stream (`pm_accel::levels`, DESIGN.md §10); every digest below was
//! recorded at the commit before that rewrite, so a `SocReport` that
//! differs in any bit of any field — cycles, seconds, joules, DMA bytes,
//! comm fraction — under `run` or `run_expert`, with or without workload
//! hints, fails here by program name.

use pm_accel::{Soc, SocError, SocReport, WorkloadHints};
use pm_lower::CompiledProgram;
use pm_workloads::{apps, programs};
use pmlang::Domain;
use polymath::{standard_soc, Compiler};
use rand::SeedableRng;
use srdfg::Bindings;
use std::collections::HashMap;
use std::hash::BuildHasher;

type Hints = HashMap<Option<Domain>, WorkloadHints>;
type Run = fn(&Soc, &CompiledProgram, &Hints) -> Result<SocReport, SocError>;

/// One digest over the four reports a program can be priced into, each a
/// cold price on a fresh SoC. The digests were recorded when each
/// `PartitionReport` also printed a fault log, always empty here (no
/// chaos, so `faults_seen: 0`); it is printed back as it was, so the
/// recorded values still pin every field that remains.
fn digest(source: &str) -> u64 {
    let compiled = Compiler::cross_domain().compile(source, &Bindings::default()).unwrap();
    let sparse = WorkloadHints {
        effective_ops: Some(12_345),
        native_factor: Some(1.5),
        ..WorkloadHints::default()
    };
    let hinted: Hints = compiled.partitions.iter().map(|p| (p.domain, sparse)).collect();
    let mut seen = String::new();
    for hints in [Hints::new(), hinted] {
        for run in [Soc::run as Run, Soc::run_expert] {
            seen += &format!("{:?}\n", run(&standard_soc(), &compiled, &hints).unwrap());
        }
    }
    let seen = seen.replace("faults_seen: 0, ", "faults_seen: 0, faults: [], ");
    srdfg::FxBuildHasher::default().hash_one(seen)
}

/// The 13 Table III programs and the two applications.
#[test]
fn table_iii_programs_and_the_apps_price_as_recorded() {
    let golden: [(&str, String, u64); 15] = [
        ("mobile_robot-8", programs::mobile_robot(8), 0xaafd_3c0f_4a46_e8a3),
        ("hexacopter-4", programs::hexacopter(4), 0x08f5_5829_fe80_a2be),
        ("lqr-4x2", programs::lqr_step(4, 2), 0x3409_60a2_5fb0_167d),
        ("bfs-16", programs::bfs(16), 0x393a_0303_0ada_ba68),
        ("sssp-16", programs::sssp(16), 0x2206_1e42_9966_cd26),
        ("pagerank-16", programs::pagerank(16), 0xd470_ebce_8b89_abde),
        ("lrmf-8x3", programs::lrmf(8, 3), 0xd25d_6823_70ab_93e8),
        ("kmeans-16x3", programs::kmeans(16, 3), 0xfd8f_7bbb_93d6_5a3e),
        ("fft-32", programs::fft(32), 0x5449_48a8_391f_5546),
        ("dct-8", programs::dct(8), 0x422a_e534_4d9f_4427),
        ("dct-block", programs::dct_block(), 0x422a_e534_4d9f_4427),
        ("logistic-16", programs::logistic(16), 0x1ba4_b634_532a_54c4),
        ("black_scholes-8", programs::black_scholes(8), 0x31cc_5b53_c76b_2d56),
        ("brain_stimul-64", apps::brain_stimul(64, 8).source, 0x6b5f_b8c4_dea6_f32f),
        ("option_pricing-32", apps::option_pricing(32, 8).source, 0xad14_4e73_2ed2_7cb9),
    ];
    let got: Vec<(&str, u64)> = golden.iter().map(|(name, src, _)| (*name, digest(src))).collect();
    let want: Vec<(&str, u64)> = golden.iter().map(|(name, _, d)| (*name, *d)).collect();
    assert_eq!(got, want, "left: priced now, right: recorded");
}

/// `pm-fuzz` programs, seeds `0..GENERATED.len()`: statements annotated
/// over all five domains, so most carry a TABLA or DECO partition. Seeds
/// 46 and 139 multiply by a folded `0`; their digests price the product
/// kept, since `x*0` is NaN for an infinite or NaN `x`. Seeds 20, 30, 116,
/// 162, 175, 189, 190 and 211 select between equal branches on a condition
/// that reads an operand; their digests price the select kept, since that
/// read may fail.
#[test]
fn generated_programs_price_as_recorded() {
    let got: Vec<u64> = (0..GENERATED.len() as u64)
        .map(|seed| {
            let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
            digest(&pm_fuzz::gen_program(&mut rng).to_pmlang())
        })
        .collect();
    let moved: Vec<usize> = (0..got.len()).filter(|&i| got[i] != GENERATED[i]).collect();
    assert!(moved.is_empty(), "seeds {moved:?} price differently; priced now: {got:#x?}");
}

#[rustfmt::skip]
const GENERATED: [u64; 240] = [
    0x8969_25c8_bd8b_6864, 0x04a6_5fe2_ff32_7efe, 0x1671_95db_5f5c_5d4d, 0xe1e0_dd8b_c9ee_0968,
    0xc359_d103_5ce3_7dcf, 0xa5b9_28be_06fb_7161, 0x0665_f9f0_806e_2c98, 0xad06_eb5d_6645_ebb1,
    0xeb4c_e488_38ad_32ab, 0x1d62_8b7f_a684_6714, 0x8e5c_5b7d_2560_563c, 0xfe39_b30f_eada_6033,
    0xf34a_59f8_7f84_d59b, 0x5ffa_5c03_87d4_5102, 0x2c97_f6d4_fbbe_f61f, 0x63e3_fa3a_d664_29ad,
    0x01f5_c5cb_54c9_afac, 0xa5b9_28be_06fb_7161, 0x0e57_078c_d336_ceda, 0x0590_2690_9491_690b,
    0x76cc_c93d_5697_f976, 0x6403_9bb9_d0eb_f452, 0xa264_0edc_4dce_d230, 0xe361_fd72_c984_2399,
    0xfc3a_2077_d5dc_40ca, 0x3074_70ba_2afc_9fc4, 0x5744_6790_86e7_d5f4, 0xb897_c7f6_34ab_ef20,
    0xddf8_9db8_9ba1_3a5e, 0x1fdb_fd93_02b4_296f, 0xb076_2f3b_2d0e_ffbb, 0x9837_0330_6030_cc5b,
    0x1de9_9051_2cf8_f216, 0x21ac_5371_fbed_66fd, 0x4e4f_3926_a039_7666, 0x3dae_a202_6eeb_5176,
    0x62ba_1e96_3a30_a9a8, 0x2150_1397_1b1f_3b43, 0x2b07_1d22_6a5f_6027, 0xbc57_6b3b_d13b_5c35,
    0xed92_1d69_4552_6670, 0xa5b9_28be_06fb_7161, 0x3cb0_6437_6733_7bff, 0x812b_66d1_0178_e234,
    0xa81b_1983_7010_9be3, 0x8aa4_c8cf_85ff_bef0, 0x5be7_eaeb_9285_6dae, 0xdb00_feb2_67a5_28af,
    0xa34c_7076_fa99_c7c5, 0xc057_8180_2ccd_c6ef, 0x6f4a_e03f_3de5_3dae, 0x0882_c377_b0e9_8b23,
    0x2e55_f55b_24a7_a671, 0xc8ce_7ee9_f736_7b99, 0x2b73_c55a_349c_5459, 0xc5da_0bc9_6db3_4c39,
    0x48b1_7775_e49e_37af, 0xb808_184e_ba7d_72bb, 0x1ddf_d6f9_d314_76cc, 0xcfd2_b432_3516_cb8c,
    0xd2f2_03fb_a2cf_45ec, 0x7384_ec65_7cd3_1e10, 0x504f_8858_14be_7835, 0x6c01_7ce7_6c28_9cda,
    0xebd5_cea7_e779_af45, 0xee18_2877_4a1d_4f3a, 0xee0b_df99_5ea6_b8a2, 0x647f_c5d3_99fc_b4c5,
    0xd0d6_403f_c93d_b337, 0x1940_7bb9_b9ae_acc3, 0x0555_4c34_54a3_093a, 0xd3f9_a6dd_76a1_b388,
    0x39b2_8bb6_b52b_0229, 0x1fbe_0607_2e09_fc33, 0x3f95_2a76_a109_5e2b, 0xffe2_512d_cb06_f579,
    0x9872_2d7b_eb49_af43, 0x1fea_e202_1e09_7a19, 0xb185_6069_417a_e418, 0x07a0_06aa_8d20_99c7,
    0x4ca9_4011_6b88_3736, 0x82e9_3d3e_e3f1_407e, 0xff1b_41d6_bebb_a4fb, 0xe495_7673_eae9_3cea,
    0xa5b9_28be_06fb_7161, 0xe8e3_79f4_5b64_bf8b, 0x6722_e20d_9d39_ad1e, 0xe530_3417_6179_cb02,
    0x5b44_f321_718c_04f2, 0x9e33_fcf2_8a71_83bf, 0x857d_f687_b6a0_16ab, 0xd524_1bbc_0788_6159,
    0x4cc5_b0dc_1273_6c67, 0x7b20_ff4c_76ce_fc99, 0x8d1e_463c_29c8_4368, 0xbfdf_fff6_02c3_0cb3,
    0x9936_9b18_47c3_8107, 0xc45b_46e9_ac18_a636, 0xf648_31d5_2476_5b4a, 0xd6ee_6db0_6501_d87b,
    0x842c_f2b7_8a6d_1e11, 0xc8cb_34d1_29df_ce6c, 0x7915_3cfe_68ed_ec63, 0x402e_8c06_ae83_5978,
    0xc7fd_cbd5_e51e_48e9, 0x0c80_5ae6_c88e_5bad, 0xebe6_e1cb_e853_c98e, 0xdfd7_4580_f49f_800c,
    0xa382_58f7_5d4c_37d1, 0x377d_db4d_c903_5e2f, 0x4d27_dcc7_1658_c9c7, 0xd24b_179a_8a11_cb40,
    0xebfb_a6e8_1dc7_87e1, 0xa5b9_28be_06fb_7161, 0x86c8_bdd6_c43e_c165, 0x4f36_ac54_e2c3_1435,
    0x1acb_317f_fdbe_30d1, 0x0d62_2a6b_54ca_9c30, 0x9580_f960_9e5e_f01e, 0x4aec_6c05_6a3e_3213,
    0x3851_3d99_4849_0c34, 0x4c8d_2980_ded1_6d3f, 0x070d_7684_54c9_a583, 0x6673_4736_31cb_e567,
    0xf627_0988_668b_ac1e, 0xc45c_3cf4_7716_fed3, 0x729a_a0a6_9dfd_c6a4, 0xac66_4d87_461e_1d0b,
    0x3ce2_dc25_51c3_a77d, 0x7b13_ebdd_50ca_1971, 0x13ae_fa90_c65b_8bb9, 0x2ffe_9a50_7983_faae,
    0x98e5_f628_be37_a1f3, 0xdb00_feb2_67a5_28af, 0x3dfb_ae82_2192_6bab, 0xb327_4782_79a1_6326,
    0xe2a1_5b32_c774_a7cf, 0x9b40_17dc_0dcc_3a2a, 0x1a81_2324_c29c_1713, 0x5dae_3a9b_af88_9f93,
    0x59c2_3e4f_4751_4d89, 0xd900_6593_5e48_1d28, 0x4013_7050_07c6_46c3, 0x8e49_1bad_8ca9_3b02,
    0xf9bf_b88f_2cae_d0e1, 0xe1a8_2b57_d52f_ff80, 0x04ef_94c9_733b_78dc, 0xded2_ab3f_48fd_198e,
    0xadb7_f3cc_bd2c_6a25, 0x488a_12f4_6b23_1564, 0xb349_43cd_6e73_12f0, 0x3353_ab21_8ad6_35c4,
    0xbbd7_398f_3887_41f3, 0x8f33_f912_f237_24fd, 0xbd60_2855_b977_ff64, 0xe4ef_f915_97a3_714e,
    0x098b_dc16_ee00_4cca, 0xdb00_feb2_67a5_28af, 0x86d1_b29e_5903_bfbe, 0xa2e1_fdea_8797_b924,
    0xc506_04c6_c644_db61, 0x6bd1_69da_30b0_2101, 0x8f4e_595a_d6dc_2dd0, 0xe15b_cae4_64e9_a9af,
    0xee74_a6fc_e84a_dad1, 0x2a4d_d295_130f_48d5, 0xf948_1580_c9fd_c2c8, 0x1014_fa8f_f371_4404,
    0x51a1_a15d_2d38_4ce2, 0xd67f_f46d_6a95_3b7d, 0x8136_0d22_0150_73d3, 0xa005_3b59_9ebe_8697,
    0xa757_4984_9025_e11d, 0xc4b5_474a_f9d5_7c14, 0x07c4_d4d7_6602_8ce7, 0xe463_90ae_21e1_0b61,
    0xb86f_defb_7942_a71a, 0x5e6f_c200_7c76_dc45, 0x636b_ed62_8a4b_826c, 0x1e65_54bb_b5eb_8384,
    0xf6dd_007b_6959_8631, 0x6205_7146_af9f_c92c, 0x844d_128f_80c9_1c4e, 0x5feb_d255_df8e_c72b,
    0xe3dc_67cd_53a8_14f5, 0xc705_da86_bbd4_61ba, 0x861a_0364_8330_ba7b, 0xe1ae_5f70_0883_4c2c,
    0xbd38_b921_c504_918a, 0x1a38_41a8_4a70_971d, 0x1e8b_ba85_e96c_6d9f, 0x7596_4c5c_c150_d99a,
    0xa181_dbfe_b647_06bc, 0x2fb8_7114_cd28_8497, 0xe051_d73f_32c8_bf92, 0x65df_da73_6106_6fac,
    0x5178_26bc_6f80_3d4a, 0xa5b9_28be_06fb_7161, 0x44b8_20ff_d412_6fe6, 0x9502_c6b9_423b_b19c,
    0xffcd_d644_52ce_b9dd, 0x0727_142f_52d3_0b33, 0xdd05_637d_6020_7c42, 0x21c3_e332_a3d5_56dc,
    0x1d62_8b7f_a684_6714, 0x8cab_d003_24be_0e29, 0xc955_bdb0_6413_a10e, 0x57b7_7e12_04a3_127b,
    0x7eb5_fb6c_89cd_cd0d, 0x643e_17a2_72ab_ec85, 0x95b3_f311_c46e_5bdd, 0x7174_9b71_59b8_fc25,
    0x4606_0e19_4b66_dc85, 0xd340_7d44_c2cd_8891, 0xdca2_28af_4e4b_0f14, 0xb74e_793a_8cbb_4e65,
    0x8422_4c06_888d_310e, 0xf93c_6778_3e95_444c, 0x7ead_9f16_9acb_af53, 0xfb26_3faa_cd93_b833,
    0x7cdc_8142_e8ac_fff8, 0xf30f_e127_c8cb_b71a, 0xdc48_e346_2607_83d9, 0xfd1f_2127_781b_e94d,
    0x7ccb_57c9_aaec_7332, 0xb5e4_929c_eca4_ea2b, 0xa5b9_28be_06fb_7161, 0xe901_d5ba_d214_7fb8,
    0x42f8_5b78_6832_b0c5, 0xa011_0fac_02b5_5902, 0xc3ae_f59a_1224_7313, 0x980c_9922_3cbc_2f5c,
    0x5d01_538b_e571_1bb2, 0x5e67_2d38_459f_28d8, 0x0cba_bb05_9ebc_208a, 0xf368_ea4c_19a3_02b9,
    0xed19_aeb6_faaa_16f5, 0xaf1c_6f1e_9e62_c0f9, 0x687a_ad0c_7431_50d4, 0x1f99_c704_d6d9_54f7,
];
