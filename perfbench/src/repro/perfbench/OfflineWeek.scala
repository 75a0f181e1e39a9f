package repro.perfbench

import org.apache.spark.sql.{DataFrame, SparkSession}
import repro.candidate.CandidateGeneration
import repro.core._
import repro.embed.{SemanticEmbed, SkipGram}
import repro.eval.Annotators
import repro.linkpred.{GnnTraining, LinkPredData, Metrics}
import repro.ner.{BertCrfSim, EntitySequenceExtractor}
import repro.preference.UserPreference
import repro.storage.GraphStore
import repro.tables.TableIII
import repro.world.{BehaviorGen, EntityWorld, WorldConfig}
import scala.util.Random

/** One TRMP offline week, from behaviour logs to the serving state the online
  * stage reads: Stage I–II for the week (`Trmp.runWeek`), the ensemble over
  * the padded window, accept-and-score of the candidate edges, publication
  * to the graph store, and the materialised user embeddings.
  *
  * Untraced, the week runs through `Trmp.runWeek` exactly as the system does.
  * Traced, the same stages are called one by one, with the seeds and configs
  * `Trmp.candidateStage` derives, so each gets its own span; every lazy
  * Spark output is forced with a `count` at its span boundary.
  */
object OfflineWeek {

  /** Table III's world (600 entities, 12 topics, 800 users) and models, on a
    * shorter schedule so that a week and a warm request loop fit in one
    * benchmark run: 3 days of logs instead of 15, 6 ALPC epochs instead of
    * 30, and ensemble epochs over 600 sampled pairs instead of 4000. Model
    * shapes (dims, layers, sampled neighbours, candidate k) are Table III's.
    * World and seeds are Table III's own, so every run mines the same week
    * and the quality numbers repeat exactly; workload seeds vary the requests.
    */
  val config: (WorldConfig, Trmp.TrmpConfig) = {
    val t3 = TableIII.Scale()
    (t3.world, t3.trmp.copy(
      logCfg = t3.trmp.logCfg.copy(days = 3),
      alpcCfg = t3.trmp.alpcCfg.copy(epochs = 6),
      ensCfg = t3.trmp.ensCfg.copy(maxTrainPairs = 600)))
  }

  /** A small world of the same shape, on which traced runs check the traced
    * week against `Trmp.runWeek`: 5 entities and 5 users per topic, 1 log
    * day, 2 ALPC and 2 ensemble epochs.
    */
  val smallConfig: (WorldConfig, Trmp.TrmpConfig) = {
    val (w, t) = config
    (w.copy(nEntities = 60, nUsers = 60),
     t.copy(logCfg = t.logCfg.copy(days = 1), alpcCfg = t.alpcCfg.copy(epochs = 2),
       ensCfg = t.ensCfg.copy(epochs = 2)))
  }

  final case class Built(
      week: Trmp.WeeklyRun,
      ensemble: EnsembleScorer,
      candidates: Int,
      published: Array[(Int, Int, Double)],
      store: GraphStore,
      entityEmb: DataFrame,
      userEmb: DataFrame) {
    def acceptRate: Double = published.length.toDouble / candidates
  }

  /** Runs the week; the returned embeddings are cached and materialised. */
  def run(spark: SparkSession, world: EntityWorld, cfg: Trmp.TrmpConfig,
          storePath: String, tr: Tracer): Built = tr.span[Built]("week") {
    val week = 0
    val wr =
      if (tr.enabled) tracedRunWeek(spark, world, cfg, week, tr)
      else Trmp.runWeek(spark, world, cfg, week)
    val ensemble = tr.span("core.ensemble_fit") {
      // window padded the way Trmp.run pads it for the first week
      Ensemble.fit(Seq.fill(cfg.ensembleWindow)(wr.alpc.z), wr.data, cfg.ensCfg)
    }
    val (candidates, published) = tr.counted[(Int, Array[(Int, Int, Double)])]("core.accept_score",
        r => Map("candidates" -> r._1.toDouble, "accepted" -> r._2.length.toDouble)) {
      val cand = wr.candidateEdges.select("src", "dst").collect().map(r => (r.getInt(0), r.getInt(1)))
      (cand.length, cand.filter { case (u, v) => ensemble.accept(u, v) }
        .map { case (u, v) => (u, v, ensemble.score(u, v)) })
    }
    val store = new GraphStore(spark, storePath)
    tr.counted("storage.write", (_: Unit) => Map("published_edges" -> published.length.toDouble)) {
      import spark.implicits._
      store.write(published.toSeq.toDF("src", "dst", "score"))
    }
    val (entityEmb, userEmb) = tr.span[(DataFrame, DataFrame)]("preference.user_emb") {
      val entityEmb = UserPreference.embeddingsDf(spark, servedEmbeddings(world, wr, ensemble)).cache()
      val userEmb = UserPreference.userEmbeddings(wr.sequencesFlat, entityEmb).cache()
      userEmb.count()
      (entityEmb, userEmb)
    }
    Built(wr, ensemble, candidates, published, store, entityEmb, userEmb)
  }

  /** The published h_e, built as Table III builds it: the centred,
    * L2-normalised ensemble embedding followed by the week's E^Se and E^Co.
    */
  def servedEmbeddings(world: EntityWorld, wr: Trmp.WeeklyRun, es: EnsembleScorer): Array[Array[Double]] = {
    val n = world.cfg.nEntities
    val raw = Array.tabulate(n)(es.fusedEmbedding)
    val dimMean = Array.tabulate(raw.head.length)(j => raw.map(_(j)).sum / n)
    Array.tabulate(n) { e =>
      val z = EntityWorld.normalize(raw(e).zip(dimMean).map { case (x, m) => x - m })
      z ++ wr.data.featSe(e) ++ wr.data.featCo(e)
    }
  }

  /** `Trmp.runWeek`, stage by stage, with a span and a forced output per stage. */
  private def tracedRunWeek(spark: SparkSession, world: EntityWorld, cfg: Trmp.TrmpConfig,
                            week: Int, tr: Tracer): Trmp.WeeklyRun = {
    val wr = new Random(cfg.seed * 131 + week)
    val logCfg = cfg.logCfg.copy(weekSeed = cfg.seed + week,
      crossTopicNoise = cfg.logCfg.crossTopicNoise + cfg.logDrift * wr.nextDouble())
    val behaviors = tr.counted("world.gen", (d: DataFrame) => Map("behavior_rows" -> d.count().toDouble)) {
      BehaviorGen.generate(spark, world, logCfg)
    }
    val nerCfg = BertCrfSim.NerConfig(
      pDrop = 0.03 + cfg.nerDrift * wr.nextDouble(),
      pConfuse = 0.02 + cfg.nerDrift * wr.nextDouble(),
      seed = cfg.seed + 17 * week)
    val tagged = tr.counted("ner.tag", (d: DataFrame) => Map("mentions" -> d.count().toDouble)) {
      BertCrfSim.tag(spark, world, behaviors, nerCfg)
    }
    val flat = tr.counted("ner.extract", (d: DataFrame) => Map("sequence_rows" -> d.count().toDouble)) {
      EntitySequenceExtractor.flattened(EntitySequenceExtractor.extract(tagged)).cache()
    }
    val sgCfg = cfg.sgCfg.copy(seed = cfg.sgCfg.seed + week)
    val pairRows = tr.counted[Array[(Int, Int)]]("embed.sgns_pairs", p => Map("sgns_pairs" -> p.length.toDouble)) {
      SkipGram.pairs(flat, sgCfg.window).collect().map(r => (r.getInt(0), r.getInt(1)))
    }
    val embCo = tr.span("embed.sgns_train") {
      SkipGram.trainOnPairs(pairRows, world.cfg.nEntities, sgCfg)
    }
    val embSe = tr.span("embed.semantic")(SemanticEmbed.embed(world, cfg.semCfg))
    val gc = tr.counted("candidate.knn", (d: DataFrame) => Map("edges" -> d.count().toDouble)) {
      CandidateGeneration.candidateGraph(spark, embCo, embSe, cfg.candCfg)
    }
    val data = tr.counted[LinkPredData]("linkpred.split", d => Map("train_pairs" -> d.trainPairs.length.toDouble)) {
      LinkPredData.split(spark, gc, world.cfg.nEntities, embSe, embCo, seed = cfg.seed + 1000 + week)
    }
    val alpc = tr.counted("core.alpc_fit", (_: AlpcScorer) => Map("epochs" -> cfg.alpcCfg.epochs.toDouble)) {
      new Alpc(cfg.alpcCfg.copy(seed = cfg.alpcCfg.seed + week)).fit(data)
    }
    Trmp.WeeklyRun(week, flat, gc, data, alpc)
  }

  /** Runs the week on `world` twice, through `Trmp.runWeek` and through the
    * traced stage-by-stage copy, and returns every difference in their
    * outputs. The week is deterministic, so the two must agree exactly, or
    * the traced per-layer figures would describe the copy, not the program.
    */
  def tracedMatchesProgram(spark: SparkSession, world: EntityWorld, cfg: Trmp.TrmpConfig,
                           dir: String): Seq[String] = {
    def outputs(tr: Tracer, path: String) = {
      val b = run(spark, world, cfg, path, tr)
      val cand = b.week.candidateEdges.select("src", "dst").collect().map(r => (r.getInt(0), r.getInt(1))).sorted.toSeq
      (cand, quality(world, b)._1, b.published.toSeq)
    }
    val (cp, ap, pp) = outputs(new Tracer(false), s"$dir/program")
    val (ct, at, pt) = outputs(new Tracer(true), s"$dir/traced")
    Seq(
      (cp == ct, s"candidate edges differ (${cp.length} from Trmp.runWeek, ${ct.length} traced)"),
      (ap == at, s"ALPC AUC differs ($ap from Trmp.runWeek, $at traced)"),
      (pp == pt, s"published edges differ (${pp.length} from Trmp.runWeek, ${pt.length} traced)"))
      .collect { case (false, msg) => s"traced week: $msg" }
  }

  /** Quality of the week: ALPC held-out AUC and annotator ACC of the
    * published relations.
    */
  def quality(world: EntityWorld, b: Built): (Double, Double) = {
    val d = b.week.data
    val auc = Metrics.auc(d.testPos.map { case (u, v) => b.week.alpc.score(u, v) },
                          d.testNeg.map { case (u, v) => b.week.alpc.score(u, v) })
    val acc = Annotators.evaluate(world, b.published.map { case (u, v, _) => (u, v) }).acc
    (auc, acc)
  }

  /** ALPC's structural pair features over the train pairs, the work
    * `Alpc.fit` does once before its epochs; returns a checksum.
    */
  def structFeatures(data: LinkPredData): Double = {
    val sf = GnnTraining.structFeatures(data.trainGraph) _
    var acc = 0.0
    data.trainPairs.foreach { case (u, v) => acc += sf(u, v)(0) }
    acc
  }
}
