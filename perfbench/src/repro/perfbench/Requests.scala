package repro.perfbench

import org.apache.spark.sql.SparkSession
import org.apache.spark.sql.functions._
import repro.online.Targeting
import repro.preference.UserPreference
import repro.world.EntityWorld

/** The online stage under a closed loop with one client: each targeting
  * request is sent when the previous one has returned.
  */
object Requests {

  val Hops = 2
  val TopK = 120
  /** Size of the simulated marketer's selection (Targeting's default). */
  val MaxEntities = 25

  final case class Outcome(id: Int, req: Workloads.Request, ms: Double,
                           result: Option[Targeting.TargetingResult], error: Option[String])

  /** Sends `reqs` one after another until `deadlineNs` passes (at least
    * `minCount` are sent). Traced, each request gets a span, and the k-hop
    * and top-K work is first done on the same inputs in spans of its own.
    */
  def loop(spark: SparkSession, world: EntityWorld, b: OfflineWeek.Built,
           reqs: Iterator[(Workloads.Request, Int)], deadlineNs: Long, minCount: Int,
           tr: Tracer): Seq[Outcome] = {
    val out = scala.collection.mutable.ArrayBuffer[Outcome]()
    while (reqs.hasNext && (out.length < minCount || System.nanoTime() < deadlineNs)) {
      val (q, id) = reqs.next()
      tr.request = id
      out += tr.span[Outcome]("request") {
        // the replay runs first: it caches nothing, so the request itself
        // behaves as untraced, while a replay after it would be answered from
        // the expansion the request just cached
        val seeds = q.phrases.flatMap(world.idOf)
        if (tr.enabled && seeds.nonEmpty) layerReplay(spark, b, seeds, tr)
        val t0 = System.nanoTime()
        val res = try {
          Right(tr.span[Targeting.TargetingResult]("online.target") {
            Targeting.target(spark, world, b.store, b.userEmb, b.entityEmb, q.phrases, Hops, TopK)
          })
        } catch { case e: Exception => Left(s"${e.getClass.getSimpleName}: ${e.getMessage}") }
        val ms = (System.nanoTime() - t0) / 1e6
        Outcome(id, q, ms, res.toOption, res.left.toOption)
      }
      tr.request = -1
    }
    out.toSeq
  }

  /** Makes the request's two program calls on its inputs, each in its own
    * span: the k-hop expansion and the preference top-K over the entities
    * the simulated marketer keeps.
    */
  private def layerReplay(spark: SparkSession, b: OfflineWeek.Built, seeds: Seq[Int], tr: Tracer): Unit =
    if (tr.enabled) {
      val expanded = tr.counted[Array[(Int, Int)]]("storage.khop", e => Map(
          "expanded_entities" -> e.length.toDouble,
          "hop1_entities" -> e.count(_._2 == 1).toDouble,
          "hop2_entities" -> e.count(_._2 == 2).toDouble)) {
        b.store.kHop(seeds, Hops).select("entity_id", "hop").collect().map(r => (r.getInt(0), r.getInt(1)))
      }
      val embById = b.entityEmb.collect().map(r => r.getInt(0) -> r.getSeq[Double](1).toArray).toMap
      val chosen = curate(expanded.map(_._1).toSeq, seeds, embById)
      tr.counted[Array[(Int, Double)]]("preference.topk", t => Map("users" -> t.length.toDouble)) {
        UserPreference.preferenceScores(spark, b.userEmb, b.entityEmb, chosen)
          .groupBy("user_id").agg(avg("score").as("pref"))
          .orderBy(desc("pref")).limit(TopK).collect()
          .map(r => (r.getInt(0), r.getDouble(1)))
      }
    }

  /** Spark jobs of a k-hop over `seeds` that a served request has already
    * cached: the cost of a cached scan, traced as `storage.khop_cached`.
    */
  def cachedKHopJobs(b: OfflineWeek.Built, seeds: Seq[Int], tr: Tracer): Long = {
    tr.span("storage.khop_cached")(b.store.kHop(seeds, Hops).select("entity_id", "hop").collect())
    tr.all.last.jobs
  }

  /** The simulated marketer's selection, as `Targeting.target` makes it: the
    * expansion entities most cosine-similar to the mean seed embedding.
    */
  def curate(expanded: Seq[Int], seeds: Seq[Int], embById: Map[Int, Array[Double]]): Seq[Int] = {
    val vecs = seeds.flatMap(embById.get)
    val mean = Array.tabulate(vecs.head.length)(i => vecs.map(_(i)).sum / vecs.length)
    expanded.sortBy(e => -EntityWorld.cosine(embById(e), mean)).take(MaxEntities)
  }

  /** Closed-form top-K: user u scores r_u · mean(h_e over `chosen`), the
    * average of the per-entity preferences r_u · h_e.
    */
  def referenceTopK(users: Map[Int, Array[Double]], embById: Map[Int, Array[Double]],
                    chosen: Seq[Int], k: Int): Array[(Int, Double)] = {
    val hs = chosen.map(embById)
    val mean = Array.tabulate(hs.head.length)(i => hs.map(_(i)).sum / hs.length)
    users.toArray.map { case (u, r) => (u, r.indices.map(i => r(i) * mean(i)).sum) }
      .sortBy { case (u, s) => (-s, u) }.take(k)
  }

  /** Absolute score tolerance: Spark averages the per-entity dot products
    * while the reference takes one dot product with the mean, so scores agree
    * to rounding. Users whose reference scores lie within this of the K-th
    * score are ties, and either may be exported.
    */
  val ScoreTol = 1e-9

  /** The request path computed on the driver from the published edges and
    * the collected embeddings: breadth-first k-hop expansion, the simulated
    * marketer's selection, and the closed-form ranking of every user.
    */
  final class Reference(published: Seq[(Int, Int)], val embById: Map[Int, Array[Double]],
                        val users: Map[Int, Array[Double]]) {
    private val adj: Map[Int, Seq[Int]] =
      (published ++ published.map(_.swap)).groupBy(_._1).map { case (u, es) => u -> es.map(_._2) }

    /** entity → hop for everything within `k` hops of the seeds. */
    def expand(seeds: Seq[Int], k: Int = Hops): Map[Int, Int] = {
      var hops = seeds.map(_ -> 0).toMap
      var frontier = seeds.toSet
      (1 to k).foreach { h =>
        frontier = frontier.flatMap(adj.getOrElse(_, Nil)).filterNot(hops.contains)
        hops ++= frontier.map(_ -> h)
      }
      hops
    }

    def ranking(seeds: Seq[Int]): Array[(Int, Double)] =
      referenceTopK(users, embById, curate(expand(seeds).keys.toSeq.sorted, seeds, embById), users.size)
  }

  /** Checks one request's export of `k` users against the reference;
    * returns the problems found.
    */
  def check(res: Targeting.TargetingResult, ref: Reference, k: Int = TopK): Seq[String] = {
    val top = res.targetUsers
    val problems = scala.collection.mutable.ArrayBuffer[String]()
    if (top.length != math.min(k, ref.users.size)) problems += s"exported ${top.length} users, expected $k"
    if (top.zip(top.drop(1)).exists { case (a, b) => a._2 < b._2 }) problems += "scores not in descending order"
    val hops = res.expandedEntities.select("entity_id", "hop").collect().map(r => r.getInt(0) -> r.getInt(1)).toMap
    res.seedIds.filterNot(s => hops.get(s).contains(0)).foreach(s => problems += s"seed $s not at hop 0")
    val bfs = ref.expand(res.seedIds)
    if (hops != bfs) problems += s"k-hop expansion of ${hops.size} entities differs from the ${bfs.size} found by BFS"
    if (problems.isEmpty) {
      val ranking = ref.ranking(res.seedIds)
      val refScore = ranking.toMap
      val kth = ranking(top.length - 1)._2
      top.foreach { case (u, s) =>
        val r = refScore(u)
        if (math.abs(s - r) > ScoreTol) problems += f"user $u scored $s%.12f, reference $r%.12f"
        if (r < kth - ScoreTol) problems += f"user $u (reference $r%.12f) is below the K-th score $kth%.12f"
      }
      val exported = top.map(_._1).toSet
      ranking.take(top.length).filter { case (u, s) => !exported(u) && s > kth + ScoreTol }
        .foreach { case (u, s) => problems += f"user $u (reference $s%.12f) missing from the export" }
    }
    problems.toSeq
  }

  /** Share of exported users whose interest mix contains the service topic,
    * over the reference exports of every phrase set.
    */
  def precision(world: EntityWorld, ref: Reference): Double = {
    val hits = Workloads.phraseSets(world).map { q =>
      ref.ranking(q.phrases.flatMap(world.idOf)).take(TopK).count { case (u, _) => world.users(u).topicMix(q.topic) > 0 }
    }
    hits.sum.toDouble / (hits.length * TopK)
  }
}
