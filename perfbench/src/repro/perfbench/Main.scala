package repro.perfbench

import java.io.File
import java.lang.management.ManagementFactory
import org.apache.spark.sql.SparkSession
import repro.world.EntityWorld
import scala.collection.mutable

/** The EGL benchmark: one offline TRMP week, then a warm closed loop of
  * targeting requests.
  *
  * {{{
  * Main --workload <target_unique|target_hot> --seed <n> --seconds <s> --trace <0|1>
  *      [--work-dir <dir>]
  * }}}
  *
  * Set-up (Spark session start and world generation, repeated and reported
  * as a median) is timed apart from the measured phase. Then come the
  * measured week, run cold in the fresh JVM as a weekly job runs, warm-up
  * requests, and timed requests until `--seconds` have passed. Outputs are
  * checked, and the last line of stdout is one JSON object: end-to-end metrics
  * untraced, per-layer metrics traced (with the spans written as JSON lines
  * under the work directory).
  */
object Main {

  val SetupRepeats = 5
  /** Requests sent before timing starts, so that the JIT has settled on the
    * request path. The hot workload first sends each hot set once, which
    * fills its cache, then warms the cache-hit path.
    */
  def warmupRequests(workload: String): Int =
    if (workload == "target_hot") Workloads.HotSets + 2 else 3
  val MinTimedRequests = 3
  val ReplayEpochs = 3
  /** Quality floors of the offline week at benchmark scale. */
  val MinAuc = 0.85
  val MinAcc = 0.60

  /** One shuffle partition per core of the 4-core local master. Spark's
    * default of 200 makes every shuffle of this small data mostly task
    * overhead, and the week plus a request loop would no longer fit in a run.
    */
  val ShufflePartitions = 4

  final case class Args(workload: String, seed: Long, seconds: Int, trace: Boolean, workDir: File)

  def parse(argv: Array[String]): Args = {
    val kv = argv.grouped(2).map {
      case Array(k, v) if k.startsWith("--") => k.drop(2) -> v
      case other => throw new IllegalArgumentException(s"bad arguments: ${other.mkString(" ")}")
    }.toMap
    def need(k: String) = kv.getOrElse(k, throw new IllegalArgumentException(s"missing --$k"))
    val a = Args(need("workload"), need("seed").toLong, need("seconds").toInt,
      need("trace") match { case "1" => true; case "0" => false
                            case t => throw new IllegalArgumentException(s"--trace $t") },
      new File(kv.getOrElse("work-dir", ".bench_build/run")))
    require(Workloads.Names.contains(a.workload), s"unknown workload ${a.workload}")
    require(a.seconds > 0, "--seconds must be positive")
    a
  }

  def startSpark(workDir: File): SparkSession = {
    val s = SparkSession.builder
      .master("local[*]")
      .appName("egl-perfbench")
      .config("spark.sql.autoBroadcastJoinThreshold", -1)
      .config("spark.sql.shuffle.partitions", ShufflePartitions)
      .config("spark.ui.enabled", false)
      .config("spark.driver.host", "127.0.0.1")
      .config("spark.local.dir", new File(workDir, "spark-local").getAbsolutePath)
      .config("spark.sql.warehouse.dir", new File(workDir, "warehouse").getAbsolutePath)
      .getOrCreate()
    s.sparkContext.setLogLevel("WARN")
    s
  }

  /** (id, vec) rows of an embedding DataFrame, collected. */
  def vectors(df: org.apache.spark.sql.DataFrame): Map[Int, Array[Double]] =
    df.collect().map(r => r.getInt(0) -> r.getSeq[Double](1).toArray).toMap

  private def secondsSince(t0: Long): Double = (System.nanoTime() - t0) / 1e9

  def main(argv: Array[String]): Unit = {
    val a = parse(argv)
    a.workDir.mkdirs()
    val tr = new Tracer(a.trace)
    val (worldCfg, trmpCfg) = OfflineWeek.config

    var spark: SparkSession = null
    var world: EntityWorld = null
    val setups = (1 to SetupRepeats).map { _ =>
      if (spark != null) spark.stop()
      val t0 = System.nanoTime()
      spark = startSpark(a.workDir)
      world = new EntityWorld(worldCfg)
      secondsSince(t0)
    }
    try {
      Console.err.println(s"[perfbench] set-ups ${setups.map("%.3f".format(_)).mkString(" ")} s")
      tr.attach(spark.sparkContext)
      run(a, spark, world, trmpCfg, setups, tr)
    }
    finally { tr.detach(); spark.stop() }
  }

  private def run(a: Args, spark: SparkSession, world: EntityWorld, trmpCfg: repro.core.Trmp.TrmpConfig,
                  setups: Seq[Double], tr: Tracer): Unit = {
    val failures = mutable.ArrayBuffer[String]()
    def expect(ok: Boolean, msg: => String): Unit = if (!ok) failures += msg

    // measured phase: the offline week, then the request loop
    val w0 = System.nanoTime()
    val built = OfflineWeek.run(spark, world, trmpCfg, new File(a.workDir, "graph").getAbsolutePath, tr)
    val weekS = secondsSince(w0)

    val stream = Workloads.stream(a.workload, world, a.seed).zipWithIndex
    val warmup = warmupRequests(a.workload)
    val warm = Requests.loop(spark, world, built, stream.take(warmup).iterator, 0L, warmup, tr)
    // the live heap after the week and a fixed number of requests, so that
    // it does not grow with the number of requests a run completes
    System.gc()
    val heapMb = ManagementFactory.getMemoryMXBean.getHeapMemoryUsage.getUsed / 1e6
    val l0 = System.nanoTime()
    val timed = Requests.loop(spark, world, built, stream.drop(warmup).iterator,
      l0 + a.seconds * 1000000000L, MinTimedRequests, tr)
    // the loop returns when the last request completes, which is past the deadline
    val loopS = secondsSince(l0)

    // correctness, outside the measured phase
    val (auc, acc) = OfflineWeek.quality(world, built)
    expect(auc > MinAuc, f"ALPC AUC $auc%.4f not above $MinAuc")
    expect(acc > MinAcc, f"published ACC $acc%.4f not above $MinAcc")
    expect(built.published.nonEmpty, "published graph is empty")
    expect(built.acceptRate > 0 && built.acceptRate < 1, s"accept rate ${built.acceptRate} not inside (0,1)")
    (warm ++ timed).flatMap(o => o.error.map(e => s"request ${o.id} ${o.req.phrases}: $e")).foreach(failures += _)
    if (a.workload == "target_unique")
      expect((warm ++ timed).map(_.req).distinct.length == warm.length + timed.length, "a phrase set repeated")
    val ref = new Requests.Reference(built.published.map { case (u, v, _) => (u, v) }.toSeq,
      vectors(built.entityEmb), vectors(built.userEmb))
    // every distinct phrase set served is checked once against the reference
    (warm ++ timed).filter(_.result.nonEmpty).groupBy(_.req).values.map(_.head).foreach { o =>
      Requests.check(o.result.get, ref).foreach(p => failures += s"request ${o.id}: $p")
    }
    val precision = Requests.precision(world, ref)

    val lat = timed.filter(_.error.isEmpty).map(_.ms)
    val metrics: Seq[(String, Double, String)] =
      if (!a.trace) Seq(
        ("setup_s", Stats.median(setups), "s"),
        ("week_s", weekS, "s"),
        ("alpc_auc", auc, "ratio"),
        ("published_acc", acc, "ratio"),
        ("request_p50_ms", Stats.median(lat), "ms"),
        ("requests_per_s", timed.length / loopS, "1/s"),
        ("target_precision", precision, "ratio"),
        ("heap_live_mb", heapMb, "MB"))
      else {
        tr.span("linkpred.struct_features")(OfflineWeek.structFeatures(built.week.data))
        EpochReplay.run(built.week.data, trmpCfg.alpcCfg, ReplayEpochs, tr)
        val layers = Layers.metrics(tr.all, timed.map(_.id).toSet, trmpCfg.alpcCfg.epochs, tr.bookkeepingMs)
        // no request of target_unique can be served from an earlier cache, so
        // each k-hop span must run more Spark jobs than a cached scan does
        if (a.workload == "target_unique") {
          val cachedJobs = Requests.cachedKHopJobs(built, (warm ++ timed).flatMap(_.result).head.seedIds, tr)
          tr.all.filter(s => s.name == "storage.khop" && s.jobs <= cachedJobs).foreach(s => failures +=
            s"request ${s.request}: k-hop span ran ${s.jobs} Spark jobs, no more than a cached scan ($cachedJobs)")
        }
        val (smallCfg, smallTrmp) = OfflineWeek.smallConfig
        OfflineWeek.tracedMatchesProgram(spark, new EntityWorld(smallCfg), smallTrmp,
          new File(a.workDir, "week-check").getAbsolutePath).foreach(failures += _)
        layers ++ Seq(
          ("spark.cold_start_s", setups.head, "s"),
          ("request.timed", timed.length.toDouble, "count"),
          ("request.max_ms", lat.max, "ms"))
      }
    if (a.trace) tr.write(new File(a.workDir, s"spans-${a.workload}-${a.seed}.jsonl"))

    failures.take(20).foreach(f => Console.err.println(s"CHECK FAILED: $f"))
    Console.err.println(s"[perfbench] ${a.workload} seed=${a.seed}: week ${"%.1f".format(weekS)} s, " +
      s"${timed.length} timed requests (${warm.length} warm-up), p50 ${"%.0f".format(Stats.median(lat))} ms, " +
      s"published ${built.published.length} of ${built.candidates}, latencies ${(warm ++ timed).map(o => s"${o.ms.toInt}/${o.result.fold(0)(r => ref.expand(r.seedIds).size)}").mkString(" ")}")
    val body = metrics.map { case (k, v, u) => s"${Json.str(k)}:{\"value\":${Json.num(v)},\"unit\":${Json.str(u)}}" }
    val attempted = 1 + timed.length
    val failed = timed.count(_.error.nonEmpty)
    println(s"""{"correct":${failures.isEmpty},"attempted":$attempted,"failed":$failed,"metrics":{${body.mkString(",")}}}""")
  }
}
